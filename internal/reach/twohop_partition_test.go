package reach

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"microlink/internal/graph"
)

// Tests for the partitioned barrier-free merge: the rewritten builder must
// reproduce, byte for byte, what the PR 5 barrier build produced — same
// per-node label lists, same frozen arenas, same interned pool layout —
// for every worker count and batch size. The reference below re-creates
// the PR 5 pipeline verbatim (serial rank-order delta merge, fully serial
// freeze with a map[string]-keyed interner) on top of the unchanged BFS,
// so any behavioural drift in the partitioned merge or the two-stage
// freeze shows up as an arena diff, not just a serialization diff.

// buildTwoHopBarrierReference is the PR 5 build: same pruned hub BFS
// (runHub is shared), but deltas merged by a single goroutine in batch
// order and the arenas frozen by the old fully serial path.
func buildTwoHopBarrierReference(g *graph.Graph, h, batchSize int) *TwoHop {
	w := newThWork(g, h, false)
	n := len(w.order)
	deltas := make([]thDelta, batchSize)
	for i := range deltas {
		deltas[i].init(w.nparts)
	}
	b := newThBuilder(w)
	for lo := 0; lo < n; lo += batchSize {
		m := min(batchSize, n-lo)
		ds := deltas[:m]
		for i := range ds {
			ds[i].reset()
			b.runHub(w.order[lo+i], int32(lo+i), &ds[i])
		}
		// The PR 5 barrier merge: one goroutine, deltas in rank order.
		// Iterating a delta's partition buckets in partition order visits
		// each node's (single) entry exactly once, so per-node append
		// order matches the old flat-delta merge.
		for i := range ds {
			for p := 0; p < w.nparts; p++ {
				r := &ds[i].out[p]
				for j, s := range r.nodes {
					w.out[s] = append(w.out[s], r.labs[j])
				}
				r = &ds[i].in[p]
				for j, t := range r.nodes {
					w.in[t] = append(w.in[t], r.labs[j])
				}
			}
		}
	}
	return referenceFreeze(w)
}

// referenceFreeze is the PR 5 serial freeze, kept verbatim as the oracle
// for arena layout: append-built label arrays, one pass out then in with
// nodes ascending, and a content-keyed map interner.
func referenceFreeze(w *thWork) *TwoHop {
	n := w.g.NumNodes()
	th := &TwoHop{
		g:      w.g,
		h:      w.h,
		rank:   w.rank,
		order:  w.order,
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
	}
	intern := make(map[string]int32)
	var key []byte
	addSet := func(fol []graph.NodeID) (int32, uint16) {
		if len(fol) == 0 {
			return 0, 0
		}
		if len(fol) > maxFolLen {
			fol = fol[:maxFolLen]
		}
		sortNodeIDs(fol)
		if len(fol) <= maxInternedFol {
			key = key[:0]
			for _, v := range fol {
				key = binary.LittleEndian.AppendUint32(key, uint32(v))
			}
			if off, ok := intern[string(key)]; ok {
				return off, uint16(len(fol))
			}
			off := int32(len(th.folPool))
			th.folPool = append(th.folPool, fol...)
			intern[string(key)] = off
			return off, uint16(len(fol))
		}
		off := int32(len(th.folPool))
		th.folPool = append(th.folPool, fol...)
		return off, uint16(len(fol))
	}
	freezeDir := func(src [][]thLabel, off []int32, dst []thLabelFlat) []thLabelFlat {
		for u := 0; u < n; u++ {
			off[u] = int32(len(dst))
			labs := src[u]
			for i := range labs {
				l := &labs[i]
				folOff, folLen := addSet(l.fol)
				dst = append(dst, thLabelFlat{hub: l.hub, folOff: folOff, folLen: folLen, dist: l.dist})
			}
		}
		off[n] = int32(len(dst))
		return dst
	}
	th.outLab = freezeDir(w.out, th.outOff, th.outLab)
	th.inLab = freezeDir(w.in, th.inOff, th.inLab)
	return th
}

// requireSameArenas asserts every frozen arena of got equals want —
// stronger than serialize() equality, which does not cover pool offsets.
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
// for every (workers, batch) cell the partitioned barrier-free build is
// byte-identical — serialization and raw arenas, pool offsets included —
// to the PR 5 barrier build at the same batch size. The batch=1 column
// doubles as the serial-equivalence check (at batch size 1 the reference
// IS the serial algorithm).
func TestTwoHopPartitionedMatchesBarrierBuild(t *testing.T) {
	r := rand.New(rand.NewSource(1510))
	g := randomGraph(r, 150, 900)
	const h = 4
	for _, batch := range []int{1, 8, 32, 64} {
		ref := buildTwoHopBarrierReference(g, h, batch)
		refBytes := serialize(t, ref)
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(t *testing.T) {
				th := BuildTwoHop(g, TwoHopOptions{MaxHops: h, Workers: workers, BatchSize: batch})
				requireSameArenas(t, ref, th)
				if !bytes.Equal(refBytes, serialize(t, th)) {
					t.Fatalf("serialization differs from the barrier reference")
				}
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
		ref := buildTwoHopBarrierReference(g, 3, 4)
		th := BuildTwoHop(g, TwoHopOptions{MaxHops: 3, Workers: 4, BatchSize: 4})
		requireSameArenas(t, ref, th)

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
					if st.InsertEdge(u, v) {
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
