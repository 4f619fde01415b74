package reach

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"microlink/internal/graph"
)

// serialize returns the exact byte image of a cover, the strongest
// equality notion we have: order, every label, every followee set.
func serialize(t *testing.T, th *TwoHop) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := th.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestTwoHopParallelMatchesOracle pins the parallel builder's contract for
// Workers=4 across batch sizes: on every (u, v) pair the distance matches
// the naive BFS oracle exactly, the followee set is a subset of the
// oracle's, and it is non-empty whenever the pair is reachable — the same
// properties the serial build guarantees (Theorems 1–2).
func TestTwoHopParallelMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := randomGraph(r, 90, 420)
	const h = 4
	oracle := NewNaive(g, h)
	for _, batch := range []int{1, 8, 64} {
		th := BuildTwoHop(g, TwoHopOptions{MaxHops: h, Workers: 4, BatchSize: batch})
		if got := th.BuildInfo().BatchSize; got != batch {
			t.Fatalf("BatchSize=%d: BuildInfo reports %d", batch, got)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				nu, nv := graph.NodeID(u), graph.NodeID(v)
				want, wok := oracle.Query(nu, nv)
				got, gok := th.Query(nu, nv)
				if gok != wok {
					t.Fatalf("BatchSize=%d: reach(%d,%d) = %v, oracle %v", batch, u, v, gok, wok)
				}
				if !gok {
					continue
				}
				if got.Dist != want.Dist {
					t.Fatalf("BatchSize=%d: dist(%d,%d) = %d, oracle %d", batch, u, v, got.Dist, want.Dist)
				}
				if !subset(got.Followees, want.Followees) {
					t.Fatalf("BatchSize=%d: fol(%d,%d) = %v not ⊆ oracle %v",
						batch, u, v, got.Followees, want.Followees)
				}
				if got.Dist > 0 && len(got.Followees) == 0 {
					t.Fatalf("BatchSize=%d: fol(%d,%d) empty for reachable pair", batch, u, v)
				}
			}
		}
	}
}

// TestTwoHopParallelExactnessRate checks that the weaker batch-frozen
// pruning does not degrade followee-set exactness: parallel builds must be
// exact on at least as large a fraction of reachable pairs as the serial
// build (extra labels can only add correct followees, never remove them).
func TestTwoHopParallelExactnessRate(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	g := randomGraph(r, 80, 380)
	const h = 4
	oracle := NewNaive(g, h)

	exactRate := func(th *TwoHop) float64 {
		var reachable, exact int
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				nu, nv := graph.NodeID(u), graph.NodeID(v)
				want, ok := oracle.Query(nu, nv)
				if !ok || u == v {
					continue
				}
				reachable++
				if got, _ := th.Query(nu, nv); sameSet(got.Followees, want.Followees) {
					exact++
				}
			}
		}
		return float64(exact) / float64(reachable)
	}

	serial := exactRate(BuildTwoHop(g, TwoHopOptions{MaxHops: h, Workers: 1, BatchSize: 1}))
	parallel := exactRate(BuildTwoHop(g, TwoHopOptions{MaxHops: h, Workers: 4, BatchSize: 32}))
	if parallel < serial {
		t.Fatalf("parallel exactness %.4f below serial %.4f", parallel, serial)
	}
}

// TestTwoHopBatchOneEqualsSerial pins the core design invariant: the
// batched builder with BatchSize=1 is the serial Algorithm 2, bit for bit,
// regardless of the worker count.
func TestTwoHopBatchOneEqualsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	g := randomGraph(r, 120, 600)
	serial := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 1, BatchSize: 1}))
	par := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 4, BatchSize: 1}))
	if !bytes.Equal(serial, par) {
		t.Fatal("Workers=4 BatchSize=1 build differs from serial build")
	}
}

// TestTwoHopParallelDeterministic pins that for a fixed batch size the
// output is a pure function of the graph — independent of worker count and
// goroutine scheduling — by comparing byte images across repeated builds
// with different worker counts.
func TestTwoHopParallelDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	g := randomGraph(r, 120, 600)
	ref := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 2, BatchSize: 16}))
	for _, workers := range []int{2, 3, 4, 8} {
		got := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: workers, BatchSize: 16}))
		if !bytes.Equal(ref, got) {
			t.Fatalf("Workers=%d build differs from Workers=2 build at BatchSize=16", workers)
		}
	}
}

// TestTwoHopDefaultsIgnoreWorkers pins that default options build one
// cover whatever the worker count resolves to, so a static 2-hop system
// answers the same on a 1-CPU host as on a many-core one: the default
// batch size must not follow GOMAXPROCS.
func TestTwoHopDefaultsIgnoreWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	g := randomGraph(r, 300, 2000)
	ref := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 1}))
	for _, workers := range []int{2, 4} {
		if !bytes.Equal(ref, serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: workers}))) {
			t.Fatalf("default-options build at Workers=%d differs from Workers=1", workers)
		}
	}
}

// TestTwoHopSizeBytesMatchesHeap asserts the SizeBytes contract: the
// reported figure must be within 10% of the measured heap growth of an
// actual build, not a magic-constant estimate.
func TestTwoHopSizeBytesMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory skews heap measurement")
	}
	r := rand.New(rand.NewSource(75))
	g := randomGraph(r, 1500, 15000)

	measure := func() (live int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 1, BatchSize: 1})
		runtime.GC()
		runtime.ReadMemStats(&after)
		live = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		reported := th.SizeBytes()
		runtime.KeepAlive(th)
		if ratio := float64(reported) / float64(live); ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("SizeBytes = %d, measured heap growth %d (ratio %.3f, want within 10%%)",
				reported, live, ratio)
		}
		return live
	}
	measure()
}

// TestTwoHopQueryZeroAlloc asserts the query hot path's steady-state
// allocation contract: R and buffer-reusing QueryAppend allocate nothing
// once the scratch pool is warm.
func TestTwoHopQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	r := rand.New(rand.NewSource(76))
	g := randomGraph(r, 200, 1200)
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})

	pairs := make([][2]graph.NodeID, 256)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(r.Intn(200)), graph.NodeID(r.Intn(200))}
	}
	// Warm the scratch pool and size the reusable followee buffer.
	buf := make([]graph.NodeID, 0, 256)
	for _, p := range pairs {
		th.R(p[0], p[1])
		res, _ := th.QueryAppend(p[0], p[1], buf[:0])
		if cap(res.Followees) > cap(buf) {
			buf = res.Followees
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		p := pairs[i%len(pairs)]
		th.R(p[0], p[1])
		i++
	}); avg != 0 {
		t.Fatalf("R allocates %.2f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(400, func() {
		p := pairs[i%len(pairs)]
		res, _ := th.QueryAppend(p[0], p[1], buf[:0])
		_ = res
		i++
	}); avg != 0 {
		t.Fatalf("QueryAppend with reused buffer allocates %.2f per op, want 0", avg)
	}
}

// TestTwoHopFolSetsSorted pins the frozen layout's ordering: every
// followee set in the pool is sorted ascending (interning compares sets
// by content), every label names a set of the set table, and query
// results come back sorted.
func TestTwoHopFolSetsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	g := randomGraph(r, 100, 500)
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 4, BatchSize: 8})
	sets := int32(len(th.setOff) - 1)
	for s := int32(0); s < sets; s++ {
		fol := th.appendSet(nil, s)
		for i := 1; i < len(fol); i++ {
			if fol[i-1] >= fol[i] {
				t.Fatalf("followee set %d not strictly ascending: %v", s, fol)
			}
		}
	}
	for _, c := range []thCols{th.out, th.in} {
		for i, s := range c.set {
			if s < 0 || s >= sets {
				t.Fatalf("label %d names set %d of %d", i, s, sets)
			}
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			res, ok := th.Query(graph.NodeID(u), graph.NodeID(v))
			if !ok {
				continue
			}
			for i := 1; i < len(res.Followees); i++ {
				if res.Followees[i-1] >= res.Followees[i] {
					t.Fatalf("Query(%d,%d) followees not sorted: %v", u, v, res.Followees)
				}
			}
		}
	}
}

// TestTwoHopParallelSizeWithinBound checks the documented space tradeoff:
// the batch-frozen build's index, and its label set, stay within 25% of
// the serial one's.
func TestTwoHopParallelSizeWithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	g := randomGraph(r, 400, 2800)
	serial := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 1, BatchSize: 1})
	par := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 4, BatchSize: DefaultTwoHopBatch})
	if s, p := serial.SizeBytes(), par.SizeBytes(); float64(p) > 1.25*float64(s) {
		t.Fatalf("parallel index %d bytes exceeds 125%% of serial %d bytes", p, s)
	}
	so, si := serial.LabelCounts()
	po, pi := par.LabelCounts()
	if s, p := so+si, po+pi; float64(p) > 1.25*float64(s) {
		t.Fatalf("parallel cover holds %d labels, over 125%% of serial's %d", p, s)
	}
}
