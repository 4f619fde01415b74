package ingest

import (
	"fmt"

	"microlink/internal/graph"
	"microlink/internal/store"
)

// Tally counts what one Apply call did, by record kind.
type Tally struct {
	Tweets   int // tweet records applied
	Follows  int // follow records seen, rejected ones included
	Feedback int // feedback records applied
	Inserted int // follow edges that were new to the live graph
}

// check is the intake test of Offer, Submit and Pipeline.Apply, so
// Deps.Apply only ever sees a known kind, and tweet and feedback records with their tweet
// (the WAL decoder guarantees the same of replayed records).
func check(r *store.Record) error {
	switch r.Kind {
	case store.RecFollow:
		return nil
	case store.RecTweet, store.RecFeedback:
		if r.Tweet != nil {
			return nil
		}
		return fmt.Errorf("%w: %s event without a tweet", ErrInvalidEvent, r.Kind)
	}
	return fmt.Errorf("%w: unknown kind %d", ErrInvalidEvent, r.Kind)
}

// Apply applies batch to the serving stack in order and appends to
// journal the records that reproduce it, which replayed through Apply
// rebuild the same state without running the linker.
//
// A tweet joins the live corpus and feeds its links back into the
// complemented KB. Nil links mean "link on apply": with link set,
// Linker.LinkTweet resolves them and the journal gets the result, so it
// never holds nil tweet links; with link unset (WAL replay) the record is
// rejected. Follows join the live graph in one InsertEdges call at the
// end, which is unobservable because scoring reads only the frozen arena;
// a follow naming a user outside the graph is rejected (journaled, it
// would fail every later replay). Feedback feeds its links back as
// given. Rejected records are skipped; the error reports the first,
// after the rest have applied.
func (d Deps) Apply(batch []store.Record, link bool, journal []store.Record) ([]store.Record, Tally, error) {
	var t Tally
	var pairs [][2]graph.NodeID
	var err error
	for i := range batch {
		r := &batch[i]
		var why error
		switch r.Kind {
		case store.RecTweet:
			if r.Links == nil && !link {
				why = fmt.Errorf("tweet %d recorded without links", r.Tweet.ID)
				break
			}
			d.Live.Append(*r.Tweet)
			links := r.Links
			if links == nil {
				links = d.Linker.LinkTweet(r.Tweet)
			}
			d.Linker.Feedback(r.Tweet, links)
			journal = append(journal, store.TweetRecord(r.Tweet, links))
			t.Tweets++
		case store.RecFollow:
			t.Follows++
			if !d.Stream.HasNode(r.U) || !d.Stream.HasNode(r.V) {
				why = fmt.Errorf("follow %d → %d: endpoint outside the follow graph", r.U, r.V)
				break
			}
			pairs = append(pairs, [2]graph.NodeID{r.U, r.V})
			journal = append(journal, store.FollowRecord(r.U, r.V))
		case store.RecFeedback:
			d.Linker.Feedback(r.Tweet, r.Links)
			journal = append(journal, store.FeedbackRecord(r.Tweet, r.Links))
			t.Feedback++
		}
		if err == nil {
			err = why
		}
	}
	if len(pairs) > 0 {
		t.Inserted = d.Stream.InsertEdges(pairs)
	}
	return journal, t, err
}
