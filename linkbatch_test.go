package microlink

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestLinkBatchPropagatesOncePerNow drives batches shaped like the bench
// harness's link-batch workload over its world (seed 42, 2 000 users): 64
// queries each, Zipf users, the 8 hottest ambiguous surfaces, 4 instants
// 10 minutes apart. Eq. 11 does not depend on the mention, so a batch
// runs at most one propagation per (cluster, now); one cluster holds 238
// of this world's 240 entities, so that is at most 4 per batch. Grouping
// by (surface, now) instead paid about 28. The exported counter
// microlink_recency_propagations_total agrees with the Scorer's own.
func TestLinkBatchPropagatesOncePerNow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2 000-user world")
	}
	w := Generate(WorldParams{Seed: 42, Users: 2000, Topics: 12, EntitiesPerTopic: 20, Days: 60})
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})

	type hot struct {
		form string
		n    int
	}
	var hs []hot
	w.KB.EachSurface(func(form string, cs []EntityID) {
		if len(cs) < 2 {
			return
		}
		h := hot{form: form}
		for _, e := range cs {
			h.n += sys.CKB.Count(e)
		}
		hs = append(hs, h)
	})
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].n != hs[j].n {
			return hs[i].n > hs[j].n
		}
		return hs[i].form < hs[j].form
	})
	hs = hs[:8]

	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(w.Graph.NumNodes()-1))
	now0 := w.Horizon() + 3600
	var total, batches int64
	for b := 0; b < 24; b++ {
		qs := make([]MentionQuery, 64)
		for i := range qs {
			qs[i] = MentionQuery{
				User:    UserID(zipf.Uint64()),
				Now:     now0 + int64(b)*3600 + int64(r.Intn(4))*600,
				Surface: hs[r.Intn(len(hs))].form,
			}
		}
		before := sys.Recency.MemoHits() + sys.Recency.Propagations()
		for i, res := range sys.Linker.LinkBatch(context.Background(), qs) {
			if res.Err != nil {
				t.Fatalf("batch %d item %d: %v", b, i, res.Err)
			}
		}
		got := sys.Recency.MemoHits() + sys.Recency.Propagations() - before
		if got > 4 {
			t.Fatalf("batch %d ran %d propagations, want ≤ 4 (one per distinct now)", b, got)
		}
		total += got
		batches++
	}
	if total == 0 {
		t.Fatal("no batch propagated: the instants are past every burst window")
	}
	t.Logf("%.2f propagations per batch", float64(total)/float64(batches))

	var buf bytes.Buffer
	if err := sys.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`microlink_recency_propagations_total{memo="hit"} %d`, sys.Recency.MemoHits()),
		fmt.Sprintf(`microlink_recency_propagations_total{memo="miss"} %d`, sys.Recency.Propagations()),
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
}
