package reach

import (
	"sync"
	"time"
	"unsafe"

	"microlink/internal/graph"
)

// TwoHop is the extended 2-hop cover of §4.1.1 (Algorithm 2): a pruned
// landmark labeling in which every out-label additionally stores the set of
// the source's followees that participate in the shortest path to the hub,
// so that weighted reachability (Eq. 4) can be recovered by label
// intersection (Eq. 5, Theorem 2). It trades slower queries for a far
// smaller index than the transitive closure (paper Table 5).
//
// Storage layout. After construction the labels are frozen into CSR-style
// arenas: one flat []thLabelFlat per direction indexed by per-node offset
// arrays, plus a single shared followee pool holding every label's
// followee set sorted ascending, with identical small sets interned once.
// Queries therefore walk two cache-contiguous label runs and dedup followee
// sets by sorted merge instead of quadratic scans; SizeBytes reports the
// measured arena sizes, not an estimate.
//
// Exactness note. Distances returned by Query are exact within the hop
// bound (the standard PLL cover property). Followee sets are exact for the
// vast majority of pairs but can be *under*-approximated in two corner
// cases inherited from the paper's algorithm: (1) pairs whose every
// covering hub equals the source itself are answered through in-labels,
// which Algorithm 2 (line 30) populates only on strict distance
// improvement, and (2) equal-length alternative shortest paths through
// pruned subtrees. We mitigate (1) by recording the hub's first-hop
// followee set inside in-labels during the forward BFS, which Eq. 5 then
// consumes for the hub = source case. The property tests in reach_test.go
// and theorems_test.go assert distance exactness and followee-subset
// behaviour against the naive oracle; empirically the sets are exact on
// ~97.5% of reachable pairs of random small-world graphs
// (TestTwoHopFolloweeExactnessRate).
type TwoHop struct {
	g     *graph.Graph
	h     int
	rank  []int32 // node → rank (0 = highest degree)
	order []graph.NodeID

	// Frozen label arenas. outOff/inOff have n+1 entries; node u's labels
	// are outLab[outOff[u]:outOff[u+1]], sorted by hub rank. Followee sets
	// live in folPool, each run sorted ascending by node id.
	outOff  []int32
	inOff   []int32
	outLab  []thLabelFlat
	inLab   []thLabelFlat
	folPool []graph.NodeID

	stats BuildStats
	info  TwoHopBuildInfo
}

// thLabelFlat is one frozen 2-hop label entry: hub rank, distance and the
// label's followee set as a run inside the shared pool. For out-labels the
// set is F_{v→hub}; for in-labels it is F_{hub→v}.
type thLabelFlat struct {
	hub    int32
	folOff int32
	folLen uint16
	dist   uint8
}

const infHops = 1 << 30

// rankInf sentinels an exhausted label list in the merge walks.
const rankInf = int32(1<<31 - 1)

// TwoHopOptions tunes Algorithm 2.
type TwoHopOptions struct {
	// MaxHops is the hop bound H; ≤ 0 selects DefaultMaxHops.
	MaxHops int
	// Workers bounds construction parallelism; ≤ 0 selects GOMAXPROCS.
	// It changes only how fast the cover is built, never which cover:
	// the output depends on BatchSize alone.
	Workers int
	// BatchSize is the number of hubs whose pruned BFS runs against the
	// same frozen label snapshot per round; ≤ 0 selects
	// DefaultTwoHopBatch. BatchSize 1 is the exact serial Algorithm 2,
	// which the oracle tests pin; larger batches keep distances identical
	// with a slightly larger label set. Output is bit-for-bit
	// deterministic for a fixed batch size regardless of worker count or
	// scheduling.
	BatchSize int
	// RandomOrder replaces the degree-descending landmark order of
	// Algorithm 2 line 1 with node-id order. Exists only for the ablation
	// bench showing why degree ordering matters.
	RandomOrder bool
}

// TwoHopBuildInfo reports how a cover was constructed, feeding the
// microlink_reach_twohop_* gauges and the `linkbench index` runner.
type TwoHopBuildInfo struct {
	Workers    int   // effective worker count (0 for a loaded index)
	BatchSize  int   // effective hub batch size
	Partitions int   // node-range partitions the merge/freeze fan over
	FolRefs    int64 // followee ids referenced by labels (pre-intern)
	FolPool    int64 // followee ids stored after interning

	// Per-stage wall-clock split of the build (BFS + Merge + Freeze ≈
	// BuildStats().BuildTime): BFSTime covers the pruned hub BFS phases,
	// MergeTime the partitioned delta merges, FreezeTime the conversion
	// into the flat CSR arenas. BarrierWait is the mean per-worker idle
	// spent at the batch-epoch fences waiting for each phase's slowest
	// worker — it is a slice of the BFS/merge wall clocks, not an extra
	// stage — and is the number the ISSUE-10 CI gate watches so the old
	// single-goroutine merge barrier cannot silently come back.
	BFSTime     time.Duration
	MergeTime   time.Duration
	BarrierWait time.Duration
	FreezeTime  time.Duration

	// MergeUtilization is each merge worker's busy fraction of the merge
	// wall clock (len = merge fan-out; nil when the merge ran serially).
	MergeUtilization []float64
}

// BuildInfo returns construction metadata for the last build. A cover
// loaded with ReadTwoHop reports zero Workers, BatchSize and timings, and
// the FolRefs, FolPool and Partitions of the build that wrote it.
func (th *TwoHop) BuildInfo() TwoHopBuildInfo { return th.info }

// MaxHops returns the hop bound H the cover was built with.
func (th *TwoHop) MaxHops() int { return th.h }

// microlint:noalloc
func (th *TwoHop) outLabels(u graph.NodeID) []thLabelFlat {
	return th.outLab[th.outOff[u]:th.outOff[u+1]]
}

// microlint:noalloc
func (th *TwoHop) inLabels(u graph.NodeID) []thLabelFlat {
	return th.inLab[th.inOff[u]:th.inOff[u+1]]
}

// microlint:noalloc
func (th *TwoHop) folSet(l thLabelFlat) []graph.NodeID {
	return th.folPool[l.folOff : l.folOff+int32(l.folLen)]
}

// thScratch is the reusable per-query scratch threaded through
// queryRank/Query so steady-state queries allocate nothing: fol
// accumulates the followee union, tmp is the merge double-buffer.
type thScratch struct {
	fol []graph.NodeID
	tmp []graph.NodeID
}

var thScratchPool = sync.Pool{New: func() any { return new(thScratch) }}

// union folds a sorted set into the sorted accumulator sc.fol. All
// growth lands in the scratch's own fields, so steady state reuses
// their capacity.
//
// microlint:noalloc
func (sc *thScratch) union(set []graph.NodeID) {
	if len(set) == 0 {
		return
	}
	if len(sc.fol) == 0 {
		sc.fol = append(sc.fol[:0], set...)
		return
	}
	a, b := sc.fol, set
	dst := sc.tmp[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	sc.fol, sc.tmp = dst, a
}

// queryRank evaluates Eq. 5 on the frozen labels: the exact shortest-path
// distance from s to t (infHops when unreachable within H) and the union of
// the followee sets over all hubs achieving the minimum (Theorem 2), sorted
// ascending inside sc.fol. Two merge walks over the rank-sorted label runs:
// the first finds the minimum distance, the second unions only the followee
// sets of hubs achieving it, so non-minimal labels cost no set work.
//
// microlint:noalloc
func (th *TwoHop) queryRank(s, t graph.NodeID, sc *thScratch) (int, []graph.NodeID) {
	sc.fol = sc.fol[:0]
	if s == t {
		return 0, nil
	}
	ls, lt := th.outLabels(s), th.inLabels(t)
	rs, rt := th.rank[s], th.rank[t]
	best := infHops

	// Pass 1: minimum distance. Virtual self entries: hub = t (t ∈ Lout(s)
	// directly) and hub = s (s ∈ Lin(t)).
	i, j := 0, 0
	for i < len(ls) || j < len(lt) {
		hi, hj := rankInf, rankInf
		if i < len(ls) {
			hi = ls[i].hub
		}
		if j < len(lt) {
			hj = lt[j].hub
		}
		switch {
		case hi < hj:
			if hi == rt {
				if d := int(ls[i].dist); d <= th.h && d < best {
					best = d
				}
			}
			i++
		case hj < hi:
			if hj == rs {
				if d := int(lt[j].dist); d <= th.h && d < best {
					best = d
				}
			}
			j++
		default:
			if d := int(ls[i].dist) + int(lt[j].dist); d <= th.h && d < best {
				best = d
			}
			i++
			j++
		}
	}
	if best == infHops {
		return infHops, nil
	}

	// Pass 2: union the followee sets of every hub achieving best.
	i, j = 0, 0
	for i < len(ls) || j < len(lt) {
		hi, hj := rankInf, rankInf
		if i < len(ls) {
			hi = ls[i].hub
		}
		if j < len(lt) {
			hj = lt[j].hub
		}
		switch {
		case hi < hj:
			if hi == rt && int(ls[i].dist) == best {
				sc.union(th.folSet(ls[i]))
			}
			i++
		case hj < hi:
			// Hub is s itself: d = 0 + d_s,t, F from the in-label.
			if hj == rs && int(lt[j].dist) == best {
				sc.union(th.folSet(lt[j]))
			}
			j++
		default:
			if int(ls[i].dist)+int(lt[j].dist) == best {
				sc.union(th.folSet(ls[i]))
			}
			i++
			j++
		}
	}
	return best, sc.fol
}

// Query implements Index. The returned followee slice is freshly allocated;
// the allocation-free variants are QueryAppend and R.
func (th *TwoHop) Query(u, v graph.NodeID) (Result, bool) {
	return th.QueryAppend(u, v, nil)
}

// QueryAppend is Query with caller-owned followee storage: the result's
// followee set is appended to buf (which may be nil) and returned inside
// Result.Followees. With a reused buffer of sufficient capacity the call
// performs no allocation.
//
// microlint:noalloc
func (th *TwoHop) QueryAppend(u, v graph.NodeID, buf []graph.NodeID) (Result, bool) {
	sc := thScratchPool.Get().(*thScratch)
	d, fol := th.queryRank(u, v, sc)
	if d >= infHops {
		thScratchPool.Put(sc)
		return Result{}, false
	}
	if d == 1 && len(fol) == 0 {
		buf = append(buf, v)
	} else {
		buf = append(buf, fol...)
	}
	thScratchPool.Put(sc)
	return Result{Dist: d, Followees: buf}, true
}

// R implements Index. The whole evaluation runs on pooled scratch, so the
// linker's per-candidate hot path stays allocation-free.
//
// microlint:noalloc
func (th *TwoHop) R(u, v graph.NodeID) float64 {
	sc := thScratchPool.Get().(*thScratch)
	d, fol := th.queryRank(u, v, sc)
	var r float64
	switch {
	case d >= infHops:
		r = 0
	case d <= 1:
		r = 1
	default:
		if od := th.g.OutDegree(u); od > 0 {
			r = 1 / float64(d) * float64(len(fol)) / float64(od)
		}
	}
	thScratchPool.Put(sc)
	return r
}

// SizeBytes implements Index. With arena storage this is measured, not
// estimated: the sum of the actual backing-array and header sizes of the
// frozen index (the arenas are shrunk to exact capacity at freeze time).
func (th *TwoHop) SizeBytes() int64 {
	b := int64(unsafe.Sizeof(*th))
	b += int64(len(th.rank)) * int64(unsafe.Sizeof(int32(0)))
	b += int64(len(th.order)) * int64(unsafe.Sizeof(graph.NodeID(0)))
	b += int64(len(th.outOff)+len(th.inOff)) * int64(unsafe.Sizeof(int32(0)))
	b += int64(len(th.outLab)+len(th.inLab)) * int64(unsafe.Sizeof(thLabelFlat{}))
	b += int64(len(th.folPool)) * int64(unsafe.Sizeof(graph.NodeID(0)))
	return b
}

// BuildStats implements Index.
func (th *TwoHop) BuildStats() BuildStats { return th.stats }

// LabelCounts returns the total number of out- and in-labels, for the
// index-size ablation.
func (th *TwoHop) LabelCounts() (out, in int64) {
	return int64(len(th.outLab)), int64(len(th.inLab))
}
