package reach

import (
	"crypto/sha256"
	"encoding/binary"
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
// size. That reference pipeline is pinned by the SHA-256 of its
// in-memory arenas (arenaDigest), so any behavioural drift in the
// partitioned merge or the two-stage freeze shows up as a digest
// mismatch, whatever the on-disk image looks like. The digests were
// first recorded over the version-1 image while the barrier build still
// ran beside the partitioned builder, and re-recorded over the version-2
// image in one run that re-checked the version-1 digests. The arena
// digests below were recorded in one run that first re-checked every
// version-2 image digest against the same builds, so the arenas pinned
// here are still the barrier build's; an image format change no longer
// touches them.

// barrierDigests maps batch size to the arena digest of the barrier
// build over randomGraph(rand.NewSource(1510), 150, 900) at H = 4.
var barrierDigests = map[int]string{
	1:  "73d7cd066b8babf2239659f80e323003647704849cd3fc74b58d363be202db30",
	8:  "21629bb74c79e240cdcfe5f116b0e77722d5ed0de391b52831e670aba8ba0d5f",
	32: "667f4eeb834f6fbfd2728aee16829951e420caa1d0e4eb7ef313aae38637caa8",
	64: "059e26b18811871c6a533b7ee4672a2db9975ad8c4bf6a36eda678fbf3c303c5",
}

// tinyBarrierDigests maps node count to the arena digest of the barrier
// build (H = 3, batch 4) over the graphs that
// TestTwoHopPartitionSchemeTinyGraphs draws from rand.NewSource(9).
var tinyBarrierDigests = map[int]string{
	3:   "5660fff6db623b5a2d1a15848cbeab30ace92ddc09a86ed824d60f212b5d733e",
	63:  "a002530ee20cd28a9904ff656c6c4491954c40321c82319803668d3e0df38172",
	64:  "d37f4617f5284558afc762a4a71f857ce636b7a131455c1090d80b9a9d07d074",
	65:  "ce7c2cb8fe63a72da2bc872fb5fb3507b564cc633b68204cdb77eb0afbba5492",
	129: "5812becd9938346533dacaaae7018cfaba37e70f1d5d9a9589e761dc05b12e1c",
}

// arenaDigest is the SHA-256 of a cover's in-memory arenas: landmark
// order, both offset arrays, both label arenas and the followee pool,
// each as a u32 length and its little-endian elements. A label hashes as
// the record the digests were pinned over — hub i32, the pool offset of
// its followee set i32, the set's length u16, dist u8 — which the label
// columns give as (hub, setOff[s], setOff[s+1]−setOff[s], dist); the
// empty set, set 0, sits at offset 0 as the empty run always did. The
// pool hashes as its ids, each a u32, whatever width it is held at.
func arenaDigest(th *TwoHop) string {
	h := sha256.New()
	var b []byte
	int32s := func(s []int32) {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(s)))
		for _, v := range s {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		h.Write(b)
	}
	labels := func(c *thCols) {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(c.hub)))
		for i, hub := range c.hub {
			lo, hi := th.setOff[c.set[i]], th.setOff[c.set[i]+1]
			b = binary.LittleEndian.AppendUint32(b, uint32(hub))
			b = binary.LittleEndian.AppendUint32(b, uint32(lo))
			b = binary.LittleEndian.AppendUint16(b, uint16(hi-lo))
			b = append(b, c.dist[i])
		}
		h.Write(b)
	}
	int32s(th.order)
	int32s(th.out.off)
	int32s(th.in.off)
	labels(&th.out)
	labels(&th.in)
	int32s(poolIDs(th))
	return hex.EncodeToString(h.Sum(nil))
}

// poolIDs is th's followee pool as node ids, whatever its width: the
// concatenation of its sets, which cut it end to end.
func poolIDs(th *TwoHop) []graph.NodeID {
	var ids []graph.NodeID
	for s := int32(0); s+1 < int32(len(th.setOff)); s++ {
		ids = th.appendSet(ids, s)
	}
	return ids
}

// requireDigest asserts th's arenas hash to want.
func requireDigest(t *testing.T, th *TwoHop, want string) {
	t.Helper()
	if got := arenaDigest(th); got != want {
		t.Fatalf("arena digest %s, barrier build %s", got, want)
	}
}

// requireSameArenas asserts every frozen column of got equals want's, the
// set table and the followee pool included.
func requireSameArenas(t *testing.T, want, got *TwoHop) {
	t.Helper()
	for _, d := range []struct {
		name      string
		want, got *thCols
	}{{"out", &want.out, &got.out}, {"in", &want.in, &got.in}} {
		if !slicesEq(d.want.off, d.got.off) {
			t.Fatalf("%s-label offsets differ", d.name)
		}
		if !slicesEq(d.want.hub, d.got.hub) || !slicesEq(d.want.dist, d.got.dist) || !slicesEq(d.want.set, d.got.set) {
			t.Fatalf("%s-label columns differ", d.name)
		}
	}
	if !slicesEq(want.setOff, got.setOff) {
		t.Fatalf("set table differs: want %d sets, got %d", len(want.setOff)-1, len(got.setOff)-1)
	}
	if !slicesEq(want.pool16, got.pool16) || !slicesEq(want.pool32, got.pool32) {
		t.Fatalf("followee pool differs: want %d ids, got %d", want.poolLen(), got.poolLen())
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
// holds the barrier build's arenas at the same batch size, and its
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
