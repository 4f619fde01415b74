package experiments

import (
	"slices"
	"testing"
	"time"

	"microlink"
)

func smallWorld() *microlink.World {
	p := DefaultWorldParams()
	p.Users = 400
	p.Topics = 6
	p.EntitiesPerTopic = 10
	p.Days = 20
	return microlink.Generate(p)
}

func checkAccuracyRows(t *testing.T, rows []AccuracyRow, wantLabels int) {
	t.Helper()
	if len(rows) != wantLabels {
		t.Fatalf("rows = %d, want %d: %+v", len(rows), wantLabels, rows)
	}
	for _, r := range rows {
		if r.Mention <= 0 || r.Mention > 1 || r.Tweet <= 0 || r.Tweet > 1 {
			t.Errorf("row %+v out of range", r)
		}
		if r.Mention < r.Tweet {
			t.Errorf("row %+v: mention accuracy below tweet accuracy", r)
		}
	}
}

func TestFig4aRows(t *testing.T) {
	rows := Fig4a(smallWorld())
	checkAccuracyRows(t, rows, 3)
	if rows[0].Label != "on-the-fly" || rows[2].Label != "ours" {
		t.Fatalf("labels: %+v", rows)
	}
}

func TestFig4bRows(t *testing.T) {
	rows := Fig4b(smallWorld(), []int{50, 10})
	checkAccuracyRows(t, rows, 2)
	if rows[0].Label != "D50" || rows[1].Label != "D10" {
		t.Fatalf("labels: %+v", rows)
	}
}

func TestFig4cRows(t *testing.T) {
	rows := Fig4c(smallWorld())
	checkAccuracyRows(t, rows, 2)
}

func TestFig4dRows(t *testing.T) {
	rows := Fig4d(smallWorld())
	checkAccuracyRows(t, rows, 2)
}

func TestTable4Rows(t *testing.T) {
	rows := Table4(smallWorld())
	checkAccuracyRows(t, rows, 4)
}

func TestFig5aRows(t *testing.T) {
	rows := Fig5a(smallWorld())
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.PerMention <= 0 || r.PerTweet < r.PerMention {
			t.Errorf("row %+v has inconsistent timings", r)
		}
	}
}

func TestFig5bShape(t *testing.T) {
	scales := []GraphScale{
		{Label: "tiny", Users: 200, ClosureFeasible: true, NaiveBudget: time.Second},
		{Label: "small", Users: 400, ClosureFeasible: true, NaiveBudget: time.Second},
	}
	rows := Fig5b(scales, 4)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Naive <= r.Incremental {
			t.Errorf("%s: naive (%v) should dwarf incremental (%v)", r.Label, r.Naive, r.Incremental)
		}
	}
}

func TestFig5cRows(t *testing.T) {
	rows := Fig5c(smallWorld(), []int{1, 0})
	if len(rows) != 2 || rows[1].Label != "whole community" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestFig5dRows(t *testing.T) {
	rows := Fig5d(smallWorld(), []int{50, 10})
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestTable5ShapeAndInfeasibleMarker checks Table 5's shape on one run
// and its headline query-time trade-off on the medians of five: a single
// 2 000-query timing swings with whatever else the machine runs.
func TestTable5ShapeAndInfeasibleMarker(t *testing.T) {
	scales := []GraphScale{
		{Label: "small", Users: 400, ClosureFeasible: true},
		{Label: "big", Users: 600, ClosureFeasible: false},
	}
	const runs = 5
	var closureQ, twoHopQ []time.Duration
	for i := 0; i < runs; i++ {
		rows := Table5(scales, 4, 2000)
		if len(rows) != 2 {
			t.Fatalf("rows = %+v", rows)
		}
		small, big := rows[0], rows[1]
		if small.ClosureBuild == 0 || small.TwoHopBuild == 0 {
			t.Fatalf("feasible scale missing builds: %+v", small)
		}
		if big.ClosureBuild != 0 {
			t.Fatalf("infeasible scale built a closure: %+v", big)
		}
		if big.TwoHopBuild == 0 || big.TwoHopQuery == 0 {
			t.Fatalf("2-hop must run at every scale: %+v", big)
		}
		// The headline Table 5 trade-off, part one: 2-hop index smaller.
		if small.TwoHopBytes >= small.ClosureBytes {
			t.Errorf("2-hop index (%d) should be smaller than closure (%d)", small.TwoHopBytes, small.ClosureBytes)
		}
		closureQ = append(closureQ, small.ClosureQuery)
		twoHopQ = append(twoHopQ, small.TwoHopQuery)
	}
	// Part two: closure queries faster.
	if c, h := median(closureQ), median(twoHopQ); c >= h {
		t.Errorf("median closure query (%v of %v) should beat 2-hop (%v of %v)", c, closureQ, h, twoHopQ)
	}
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

func TestFig6cBuckets(t *testing.T) {
	byMethod := Fig6c(smallWorld(), 4)
	if len(byMethod) != 3 {
		t.Fatalf("methods = %d", len(byMethod))
	}
	for m, buckets := range byMethod {
		if len(buckets) != 4 {
			t.Fatalf("%s: buckets = %d", m, len(buckets))
		}
		if buckets[0].Tweets == 0 {
			t.Errorf("%s: no single-mention tweets", m)
		}
	}
}

func TestFig6dGrid(t *testing.T) {
	pts := Fig6d(smallWorld(), []float64{0.6}, 2)
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	for _, p := range pts {
		sum := p.Alpha + p.Beta + p.Gamma
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("weights do not sum to 1: %+v", p)
		}
		if p.Mention <= 0 || p.Mention > 1 {
			t.Errorf("accuracy out of range: %+v", p)
		}
	}
}

func TestCategoriesRows(t *testing.T) {
	rows := Categories(smallWorld())
	if len(rows) == 0 {
		t.Fatal("no category rows")
	}
	var share float64
	for _, r := range rows {
		share += r.Share
		if r.Mention < 0 || r.Mention > 1 {
			t.Errorf("row %+v out of range", r)
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %f", share)
	}
}

func TestWeiboWorldDenser(t *testing.T) {
	p := WeiboWorldParams()
	p.Users = 300
	p.Topics = 6
	p.EntitiesPerTopic = 10
	w := microlink.Generate(p)
	if w.Store.Len() == 0 {
		t.Fatal("empty weibo world")
	}
}

func TestTaxonomyRows(t *testing.T) {
	rows := Taxonomy(300, 4, 2000)
	if len(rows) != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]TaxonomyRow{}
	for _, r := range rows {
		byName[r.Substrate] = r
		if r.Query <= 0 {
			t.Errorf("%s: no query time", r.Substrate)
		}
	}
	tc := byName["transitive closure"]
	th := byName["2-hop cover"]
	online := byName["online search (GRAIL)"]
	if tc.Query >= th.Query {
		t.Errorf("closure query (%v) should beat 2-hop (%v)", tc.Query, th.Query)
	}
	if th.Query >= online.Query {
		t.Errorf("2-hop query (%v) should beat online search (%v)", th.Query, online.Query)
	}
	if online.Bytes >= th.Bytes {
		t.Errorf("online-search labels (%d B) should be tiny next to 2-hop (%d B)", online.Bytes, th.Bytes)
	}
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{0, "0"}, {7, "7"}, {90, "90"}, {123, "123"}} {
		if got := itoa(c.n); got != c.want {
			t.Errorf("itoa(%d) = %q", c.n, got)
		}
	}
}
