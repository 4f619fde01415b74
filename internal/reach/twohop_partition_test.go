package reach

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"microlink/internal/graph"
)

// Tests for the partitioned barrier-free merge: the builder must
// reproduce, byte for byte, what the barrier build it replaced produced
// (a single goroutine merging deltas in rank order, then a fully serial
// freeze with a content-keyed interner) for every worker count and batch
// size. That reference pipeline is pinned by the SHA-256 of its WriteTo
// image, so any behavioural drift in the partitioned merge or the
// two-stage freeze shows up as a digest mismatch. The digests were first
// recorded over the version-1 image while the barrier build still ran
// beside the partitioned builder. When the image became the raw arenas
// (version 2), they were re-recorded in one run that first re-checked
// every version-1 digest against the same builds, so the arenas pinned
// here are the barrier build's. The version-2 image covers the interned
// pool's layout too; the raw arenas are still compared across worker
// counts, which pins the same thing without a digest.

// barrierDigests maps batch size to the WriteTo digest of the barrier
// build over randomGraph(rand.NewSource(1510), 150, 900) at H = 4.
var barrierDigests = map[int]string{
	1:  "7b798adb51c45b02797ab5d3af1d8946bba5780bec379095914bd417038428af",
	8:  "f472a915f6f10b0ee2b8583d980915b6b37b81935d56ce2ec0bf5e571ec5b0d4",
	32: "ccdaeaa22c4d8c2f9375aad0df7ae2d7ed1813855f2abe0fc314bf519853ce8b",
	64: "929056cf4934108ab290c60b0e7acd25b093a576b514070219f2ab725f73f1b4",
}

// tinyBarrierDigests maps node count to the WriteTo digest of the
// barrier build (H = 3, batch 4) over the graphs that
// TestTwoHopPartitionSchemeTinyGraphs draws from rand.NewSource(9).
var tinyBarrierDigests = map[int]string{
	3:   "82a7f5417fad22e80c24c0b983a580cfd67641fe9ebf7ca3fd837d5a0548be21",
	63:  "61428c9a23a352eaea8da3a09c7894a1cb65be172f0af347553a8c5152bb76bb",
	64:  "4b0950cd791023ecab65760348f054d070543fe6560f5afce61ee9e422b9fcb9",
	65:  "bf4c7b704b68a835eed1a354ceedf6333d6039d47c0b20dccda6cc30706e08f0",
	129: "abf3a48990ab6386d2962063b5f3805439c00cd37e2f9a1f0fe62648b5a0e77e",
}

// requireDigest asserts th's WriteTo image hashes to want.
func requireDigest(t *testing.T, th *TwoHop, want string) {
	t.Helper()
	sum := sha256.Sum256(serialize(t, th))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteTo digest %s, barrier build %s", got, want)
	}
}

// requireSameArenas asserts every frozen arena of got equals want, pool
// offsets included.
func requireSameArenas(t *testing.T, want, got *TwoHop) {
	t.Helper()
	if !slicesEq(want.outOff, got.outOff) || !slicesEq(want.inOff, got.inOff) {
		t.Fatalf("offset arrays differ")
	}
	if !slicesEq(want.outLab, got.outLab) {
		t.Fatalf("out-label arena differs")
	}
	if !slicesEq(want.inLab, got.inLab) {
		t.Fatalf("in-label arena differs")
	}
	if !slicesEq(want.folPool, got.folPool) {
		t.Fatalf("followee pool differs: want %d ids, got %d", len(want.folPool), len(got.folPool))
	}
}

func slicesEq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTwoHopPartitionedMatchesBarrierBuild pins the tentpole guarantee:
// for every (workers, batch) cell the partitioned barrier-free build
// serializes to the barrier build's bytes at the same batch size, and its
// raw arenas, pool offsets included, equal the one-worker build's. The
// batch=1 column doubles as the serial-equivalence check (at batch size 1
// the barrier build IS the serial algorithm).
func TestTwoHopPartitionedMatchesBarrierBuild(t *testing.T) {
	r := rand.New(rand.NewSource(1510))
	g := randomGraph(r, 150, 900)
	const h = 4
	for _, batch := range []int{1, 8, 32, 64} {
		ref := BuildTwoHop(g, TwoHopOptions{MaxHops: h, Workers: 1, BatchSize: batch})
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(t *testing.T) {
				th := BuildTwoHop(g, TwoHopOptions{MaxHops: h, Workers: workers, BatchSize: batch})
				requireDigest(t, th, barrierDigests[batch])
				requireSameArenas(t, ref, th)
			})
		}
	}
}

// TestTwoHopPartitionSchemeTinyGraphs walks the builder through graphs
// around the partition-span boundaries (single partition, exactly one
// span, one node over) where off-by-ones in the node→partition shift or
// the last short partition would corrupt the merge.
func TestTwoHopPartitionSchemeTinyGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{3, 63, 64, 65, 129} {
		g := randomGraph(r, n, 4*n)
		th := BuildTwoHop(g, TwoHopOptions{MaxHops: 3, Workers: 4, BatchSize: 4})
		requireDigest(t, th, tinyBarrierDigests[n])
		requireSameArenas(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 3, Workers: 1, BatchSize: 4}), th)

		shift, parts := partitionScheme(n)
		if parts != th.BuildInfo().Partitions {
			t.Fatalf("n=%d: info reports %d partitions, scheme says %d", n, th.BuildInfo().Partitions, parts)
		}
		if last := (n - 1) >> shift; last != parts-1 {
			t.Fatalf("n=%d: last node maps to partition %d of %d", n, last, parts)
		}
	}
}

// TestTwoHopMergeUtilizationSane checks the merge-utilization report: one
// fraction per merge worker, each within [0, 1] (a worker cannot be busy
// longer than the phase wall clock that contains it), absent for serial
// builds.
func TestTwoHopMergeUtilizationSane(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	g := randomGraph(r, 400, 3000)
	info := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 4, BatchSize: 16}).BuildInfo()
	if len(info.MergeUtilization) == 0 {
		t.Fatalf("parallel build reported no merge utilization")
	}
	for i, u := range info.MergeUtilization {
		if u < 0 || u > 1 {
			t.Fatalf("merge worker %d utilization %.3f outside [0,1]", i, u)
		}
	}
	if serial := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 1}).BuildInfo(); len(serial.MergeUtilization) != 0 {
		t.Fatalf("serial build reported merge utilization %v", serial.MergeUtilization)
	}
}

// TestStreamingBuildConcurrentWithQueriesRace is the -race soak the issue
// asks for: parallel partitioned builds run through Streaming.Rebuild
// while query goroutines hammer the frozen arena across copy-on-swap
// installs, and inserter and snapshotter goroutines work the live edge
// set beside them. Any unfenced access between the build's worker
// goroutines, the lock-free query path and the base/tail state is the
// race detector's to catch; the counts at the end must still add up.
func TestStreamingBuildConcurrentWithQueriesRace(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, 250, 1500)
	st := NewStreaming(g, TwoHopOptions{MaxHops: 4, Workers: 4, BatchSize: 16})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := graph.NodeID(qr.Intn(250))
				v := graph.NodeID(qr.Intn(250))
				st.Query(u, v)
				st.R(u, v)
			}
		}(int64(q))
	}
	var inserted atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ir := rand.New(rand.NewSource(seed))
			// Bounded: a graph driven dense would only slow the builds.
			for i := 0; i < 200; i++ {
				runtime.Gosched()
				// Nodes from [-5, 255): some endpoints are out of range.
				u, v := graph.NodeID(ir.Intn(260)-5), graph.NodeID(ir.Intn(260)-5)
				if ir.Intn(2) == 0 {
					if insertOne(st, u, v) {
						inserted.Add(1)
					}
				} else {
					inserted.Add(int64(st.InsertEdges([][2]graph.NodeID{{u, v}, {v, u}, {u, v}})))
				}
			}
		}(int64(100 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			sg, at := st.SnapshotGraph()
			if at < last || int64(sg.NumEdges()) != int64(g.NumEdges())+at {
				t.Errorf("snapshot at %d (previous %d) has %d edges over a base of %d", at, last, sg.NumEdges(), g.NumEdges())
				return
			}
			last = at
			st.Staleness()
			// Capture races the installs below: whichever arena it sees,
			// arena graph + pending is the live graph, at least sg.
			th, ag, pending := st.Capture()
			if ag != th.g || ag.NumEdges()+len(pending) < sg.NumEdges() {
				t.Errorf("capture: arena graph %d + %d pending edges, snapshot before it had %d",
					ag.NumEdges(), len(pending), sg.NumEdges())
				return
			}
		}
	}()

	for round := 0; round < 3; round++ {
		pairs := make([][2]graph.NodeID, 40)
		for i := range pairs {
			pairs[i] = [2]graph.NodeID{graph.NodeID(r.Intn(250)), graph.NodeID(r.Intn(250))}
		}
		inserted.Add(int64(st.InsertEdges(pairs)))
		th, at := st.Rebuild()
		st.Install(th, at)
	}
	close(stop)
	wg.Wait()
	th, at := st.Rebuild()
	st.Install(th, at)

	if got := st.Swaps(); got != 4 {
		t.Fatalf("swaps = %d, want 4", got)
	}
	if s := st.Staleness(); s != 0 {
		t.Fatalf("staleness after final install = %d, want 0", s)
	}
	if got, want := st.Applied(), inserted.Load(); got != want || at != want {
		t.Fatalf("Applied() = %d, final arena at %d, inserters counted %d", got, at, want)
	}
}
