package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {8, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	d := summarize(vals)
	if d.N != 1000 || d.P50 != 500 || d.TailP != 99 || d.Tail != 990 {
		t.Errorf("summarize(1..1000) = n %d p50 %v p%v %v, want n 1000 p50 500 p99 990", d.N, d.P50, d.TailP, d.Tail)
	}
}

// A handler that stalls once must show up in the latencies of the
// requests that were due during the stall: they were sent late, and an
// open loop charges them from when they were due.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const rate, n, stallAt, stall = 200.0, 200, 50, 200 * time.Millisecond
	samples := openLoop(rate, n, 1, func(_, i int) bool {
		if i == stallAt {
			time.Sleep(stall)
		}
		return true
	})
	var fromDue, fromSend []float64
	for _, s := range samples[stallAt+1:] {
		fromDue = append(fromDue, s.latencyMS())
		fromSend = append(fromSend, ms(s.done-s.sent))
	}
	// 40 requests fall due inside the 200 ms stall; the first waits almost
	// all of it.
	if got := summarize(fromDue).at(99); got < 150 {
		t.Errorf("p99 from due time after the stall = %.1f ms, want the stall (≥150 ms) to show", got)
	}
	if got := summarize(fromSend).at(99); got > 20 {
		t.Errorf("p99 from send time = %.1f ms: the fake handler is instant, only due-time accounting may see the stall", got)
	}
	if late := samples[stallAt+1].lateMS(); late < 150 {
		t.Errorf("request after the stall was sent %.1f ms late, want ≥150", late)
	}
}

func TestIntegrateLittlesLaw(t *testing.T) {
	// Queue holds 2 for 1 s, 4 for 2 s, 0 for 1 s: 10 item·seconds. If 5
	// items passed through, each spent 2 s queued on average.
	series := []level{{0, 2}, {time.Second, 4}, {3 * time.Second, 0}, {4 * time.Second, 0}}
	area := integrate(series)
	if math.Abs(area-10) > 1e-9 {
		t.Fatalf("integrate = %v, want 10", area)
	}
	if lag := area / 5; math.Abs(lag-2) > 1e-9 {
		t.Errorf("mean time in queue = %v s, want 2", lag)
	}
	if integrate(nil) != 0 || integrate(series[:1]) != 0 {
		t.Error("fewer than two samples span no time")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 40},   // sibling
		{ID: 2, Name: "b", Parent: 0, Start: 50, End: 90},   // sibling with a nested child
		{ID: 3, Name: "b.c", Parent: 2, Start: 60, End: 70}, // nested: counts against b, not root
		{ID: 4, Name: "d", Parent: 0, Start: 30, End: 55},   // overlaps a and b: covered once
	}
	want := []int64{100 - 80, 30, 40 - 10, 10, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if worse, label := verdict([]float64{100, 100}, []float64{120, 120}, false, 0.1); label != "worse" || math.Abs(worse-0.2) > 1e-12 {
		t.Errorf("lower-is-better 100→120 at bound 0.1: %v %s, want 0.2 worse", worse, label)
	}
	if _, label := verdict([]float64{100, 100}, []float64{120, 120}, true, 0.1); label != "ok" {
		t.Errorf("higher-is-better 100→120 = %s, want ok", label)
	}
	if _, label := verdict([]float64{80, 100, 120, 140}, []float64{80, 100, 120, 140}, false, 0.1); label != "unresolved" {
		t.Errorf("equal medians, spread above bound = %s, want unresolved", label)
	}
}

// The smoke test drives every workload through both modes on the
// 300-user world and holds the harness to BENCHMARK.json: every workload
// and metric named there is emitted, with its unit, and nothing else.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four small systems")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	quick := func(name string) *record {
		t.Helper()
		rec, err := execute(name, &run{sc: quickScale(), seed: 7, seconds: 1, e2e: true, traced: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rec
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q in BENCHMARK.json is not one the harness runs", w.Name)
			continue
		}
		rec := quick(w.Name)
		for _, c := range rec.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if rec.Failed != 0 || rec.Attempted < 1 || !rec.Correct {
			t.Errorf("%s: attempted %d failed %d correct %v", w.Name, rec.Attempted, rec.Failed, rec.Correct)
		}
		if len(rec.EndToEnd) != len(bf.EndToEnd) || len(rec.PerLayer) != len(bf.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, BENCHMARK.json names %d+%d",
				w.Name, len(rec.EndToEnd), len(rec.PerLayer), len(bf.EndToEnd), len(bf.PerLayer))
		}
		for _, m := range bf.EndToEnd {
			got, ok := rec.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || !nameRE.MatchString(m.Name) || !(got.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			got, ok := rec.PerLayer[m.Name]
			if !ok || got.Unit != m.Unit || !nameRE.MatchString(m.Name) || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		if w.Name == "link-batch" {
			if again := quick(w.Name); again.AnswersSHA256 != rec.AnswersSHA256 || rec.AnswersSHA256 == "" {
				t.Errorf("two link-batch runs of one seed hashed their answers to %q and %q", rec.AnswersSHA256, again.AnswersSHA256)
			}
		}
	}
}
