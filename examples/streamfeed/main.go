// Streamfeed: the online half of the framework (§3.2.2) — tweets arrive
// on a stream, their mentions are linked on the fly, and confirmed links
// feed back into the complemented knowledgebase through the ingest
// pipeline, updating communities, popularity and recency windows as the
// stream advances. Mentions whose top-k is empty are flagged as potential
// new entities (Appendix D) and, once "confirmed" by the oracle, warm the
// knowledgebase up so later mentions resolve.
package main

import (
	"context"
	"fmt"
	"log"

	"microlink"
)

func main() {
	world := microlink.Generate(microlink.WorldParams{
		Seed:             11,
		Users:            800,
		Topics:           8,
		EntitiesPerTopic: 12,
		Days:             30,
	})
	// TruthComplement keeps the demo focused on the streaming loop.
	sys := microlink.Build(world, microlink.Options{TruthComplement: true, Reach: microlink.ReachStreaming})
	pipe, err := sys.StartIngest(microlink.IngestConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Replay the last slice of the corpus as a live stream.
	all := world.Store.All()
	stream := all[len(all)-400:]

	var (
		linked, correct, flagged, fed int
	)
	for i := range stream {
		tw := &stream[i]
		if len(tw.Mentions) == 0 {
			continue
		}
		links := make([]microlink.EntityID, len(tw.Mentions))
		for mi, m := range tw.Mentions {
			top := sys.Linker.TopK(tw.User, tw.Time, m.Surface, 1)
			if len(top) == 0 {
				// Appendix D: no candidate the author plausibly means.
				// Consult the oracle (ground truth stands in for the
				// interactive user) and warm the KB up.
				flagged++
				links[mi] = m.Truth
				continue
			}
			links[mi] = top[0].Entity
			linked++
			if top[0].Entity == m.Truth {
				correct++
			}
		}
		// Confirmed links are fed back through the pipeline: postings
		// append to the complemented KB and influential-user caches
		// invalidate before Apply returns.
		if _, err := pipe.Apply(microlink.FeedbackEvent(tw, links)); err != nil {
			log.Fatal(err)
		}
		fed += len(links)
	}
	if err := pipe.Close(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stream replay: %d tweets\n", len(stream))
	fmt.Printf("  linked above threshold: %d (%.1f%% correct)\n", linked, 100*float64(correct)/float64(max(linked, 1)))
	fmt.Printf("  flagged as potential new entities: %d\n", flagged)
	fmt.Printf("  postings fed back into the KB: %d (total now %d)\n", fed, sys.CKB.TotalCount())

	// The feedback loop is what keeps recency live: the last stream slice
	// dominates the sliding window at the horizon.
	now := world.Horizon()
	busiest, busiestCount := microlink.EntityID(-1), 0
	for e := 0; e < world.KB.NumEntities(); e++ {
		if n := sys.CKB.RecentCount(microlink.EntityID(e), now, 3*86400); n > busiestCount {
			busiest, busiestCount = microlink.EntityID(e), n
		}
	}
	if busiest >= 0 {
		fmt.Printf("  hottest entity in the final window: %s (%d recent postings)\n",
			world.KB.Entity(busiest).Name, busiestCount)
	}
}
