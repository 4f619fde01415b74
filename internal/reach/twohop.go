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
// One kernel evaluates Eq. 5 over them (RFrom's scatter-and-scan; R and
// Query are its one-target cases): the source's out-labels are scattered
// by hub rank, each target's in-label run is scanned against them, and
// followee sets are deduplicated on an epoch-stamped mark array. SizeBytes
// reports the measured arena sizes, not an estimate.
//
// Exactness note. Distances returned by Query are exact within the hop
// bound (the standard PLL cover property). Followee sets can be
// *under*-approximated, by one mechanism with two faces: when the source
// u is the top-ranked node of a shortest path through its followee f,
// only a hub-u in-label at v can carry f, and the forward BFS (Algorithm
// 2, line 30) writes an in-label only on strict distance improvement. So
// if a higher-ranked hub already gives d(u, v) over another path, f is
// lost — (1) v itself is reached at the equal distance and left
// unlabelled, or (2) a node on the path is, and is not expanded, so the
// BFS never reaches v. The backward BFS (lines 5–29, with 20–27's
// equal-path case) loses no followee. Recording u's first-hop set inside
// the in-labels it does write (our extension) covers the pairs answered
// through them. TestTwoHopDeviationCounterexamples pins both faces on
// 4- and 5-node graphs; DESIGN §5.3 gives the argument. On the bench
// world R departs from Naive's on ≈ 1 % of reachable pairs at distance 2,
// 4 % at distance 3 and 11 % at distance 4, every one without a hub-u
// in-label at v (TestTwoHopDeviationOnBenchWorld).
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

// TwoHopOptions tunes Algorithm 2.
type TwoHopOptions struct {
	// MaxHops is the hop bound H; ≤ 0 selects DefaultMaxHops. Bounds
	// above 254 build as 254 (label distances are one byte).
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

// Query implements Index. The returned followee slice is freshly allocated;
// the allocation-free variants are QueryAppend and R.
func (th *TwoHop) Query(u, v graph.NodeID) (Result, bool) {
	return th.QueryAppend(u, v, nil)
}

// QueryAppend is Query with caller-owned followee storage: the result's
// followee set is appended to buf (which may be nil), sorted ascending,
// and returned inside Result.Followees. With a reused buffer of
// sufficient capacity the call performs no allocation.
//
// microlint:noalloc
func (th *TwoHop) QueryAppend(u, v graph.NodeID, buf []graph.NodeID) (Result, bool) {
	if u == v {
		return Result{Followees: buf}, true
	}
	sc := th.scatterOut(u)
	d, tail := th.minHub(sc, v)
	if d >= infHops {
		th.release(sc, u)
		return Result{}, false
	}
	th.union(sc, v, d, tail)
	sortNodeIDs(sc.fol)
	if d == 1 && len(sc.fol) == 0 {
		buf = append(buf, v)
	} else {
		buf = append(buf, sc.fol...)
	}
	th.release(sc, u)
	return Result{Dist: d, Followees: buf}, true
}

// R implements Index as the one-target case of RFrom, on the same pooled
// scratch, so the linker's per-candidate hot path stays allocation-free.
//
// microlint:noalloc
func (th *TwoHop) R(u, v graph.NodeID) float64 {
	sc := th.scatterOut(u)
	r := th.rTarget(sc, u, v, th.g.OutDegree(u))
	th.release(sc, u)
	return r
}

// RFrom implements Index natively: u's out-labels are scattered once, and
// each target scans only its own in-labels against them, so a call costs
// |Lout(u)| + Σ|Lin(v)| label reads. It is the only evaluation of Eq. 5
// over the frozen labels: R is its one-target case and Query reads the
// followee union it leaves behind.
//
// microlint:noalloc
func (th *TwoHop) RFrom(u graph.NodeID, vs []graph.NodeID, out []float64) {
	sc := th.scatterOut(u)
	od := th.g.OutDegree(u)
	for i, v := range vs {
		out[i] = th.rTarget(sc, u, v, od)
	}
	th.release(sc, u)
}

// rfScratch is the pooled scratch of the Eq. 5 kernel: the source's
// out-labels scattered by hub rank (the "temporary array" of pruned
// landmark labeling, Akiba et al., SIGMOD 2013, which the builder's prune
// kernels also use) and the followee union fol, deduplicated by an
// epoch-stamped per-node mark array.
//
// sdist[r] is the source's distance through hub r, thUnset when it has no
// hub-r label; sidx[r] that label's index in outLab, or -1 for the virtual
// self entry, whose followee set is the in-label's. sidx is read only
// where sdist is set. mark[w] == epoch means followee w is already in fol.
type rfScratch struct {
	sdist []uint8
	sidx  []int32
	mark  []uint32
	fol   []graph.NodeID
	epoch uint32
}

var rfScratchPool = sync.Pool{New: func() any { return new(rfScratch) }}

// fit grows the scratch to n nodes. Growth appends into the pooled
// fields, so a warm scratch returns at once.
//
// microlint:noalloc
func (sc *rfScratch) fit(n int) {
	for len(sc.sdist) < n {
		sc.sdist = append(sc.sdist, thUnset)
		sc.sidx = append(sc.sidx, 0)
		sc.mark = append(sc.mark, 0)
	}
}

// add appends the members of set not yet marked this epoch to fol,
// marking them.
//
// microlint:noalloc
func (sc *rfScratch) add(set []graph.NodeID) {
	for _, w := range set {
		if sc.mark[w] != sc.epoch {
			sc.mark[w] = sc.epoch
			sc.fol = append(sc.fol, w)
		}
	}
}

// nextEpoch starts a fresh, empty followee union; on wrap-around the
// marks are cleared so no stale stamp can match.
//
// microlint:noalloc
func (sc *rfScratch) nextEpoch() {
	sc.fol = sc.fol[:0]
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
}

// scatterOut takes a scratch from the pool and loads Lout(u) into it,
// plus the virtual self entry sdist[rank(u)] = 0 when u has no label on
// its own rank: the hub = u case then scores as the ordinary sum
// 0 + d(u, v).
//
// microlint:noalloc
func (th *TwoHop) scatterOut(u graph.NodeID) *rfScratch {
	sc := rfScratchPool.Get().(*rfScratch)
	sc.fit(len(th.rank))
	base := th.outOff[u]
	for i, l := range th.outLabels(u) {
		sc.sdist[l.hub] = l.dist
		sc.sidx[l.hub] = base + int32(i)
	}
	if ru := th.rank[u]; sc.sdist[ru] == thUnset {
		sc.sdist[ru], sc.sidx[ru] = 0, -1
	}
	return sc
}

// release clears every sdist entry scatterOut set and returns sc to the
// pool.
//
// microlint:noalloc
func (th *TwoHop) release(sc *rfScratch, u graph.NodeID) {
	for _, l := range th.outLabels(u) {
		sc.sdist[l.hub] = thUnset
	}
	sc.sdist[th.rank[u]] = thUnset
	rfScratchPool.Put(sc)
}

// rTarget is R(u, v) against the scattered Lout(u); od is |F_u|. The
// followee union is built only where Eq. 4 reads it (d ≥ 2).
//
// microlint:noalloc
func (th *TwoHop) rTarget(sc *rfScratch, u, v graph.NodeID, od int) float64 {
	if u == v {
		return 1
	}
	d, tail := th.minHub(sc, v)
	switch {
	case d >= infHops:
		return 0
	case d <= 1:
		return 1
	case od == 0:
		return 0
	}
	th.union(sc, v, d, tail)
	return 1 / float64(d) * float64(len(sc.fol)) / float64(od)
}

// minHub is Eq. 5's minimum for u ≠ v against the scattered Lout(u): the
// shortest distance d(u, v) within H (infHops when v is unreachable) over
// three cases, a hub common to Lout(u) and Lin(v), the hub = u entry of
// Lin(v) (through the virtual self entry) and the hub = v entry of
// Lout(u). tail reports that the last case applies: Lout(u) holds hub v
// within H and Lin(v) has no label on v's own rank. An unset hub reads
// thUnset, which plus any label distance exceeds H (ReadTwoHop refuses
// H > maxTwoHopHops), so no presence test is needed.
//
// microlint:noalloc
func (th *TwoHop) minHub(sc *rfScratch, v graph.NodeID) (best int, tail bool) {
	lt := th.inLabels(v)
	rv := th.rank[v]
	best, selfIn := infHops, false
	for i := range lt {
		selfIn = selfIn || lt[i].hub == rv
		if d := int(sc.sdist[lt[i].hub]) + int(lt[i].dist); d <= th.h && d < best {
			best = d
		}
	}
	tail = !selfIn && int(sc.sdist[rv]) <= th.h
	if tail && int(sc.sdist[rv]) < best {
		best = int(sc.sdist[rv])
	}
	return best, tail
}

// union leaves in sc.fol, unsorted, F_uv of Theorem 2: the union of the
// followee sets of every hub minHub found at distance best.
//
// microlint:noalloc
func (th *TwoHop) union(sc *rfScratch, v graph.NodeID, best int, tail bool) {
	sc.nextEpoch()
	lt := th.inLabels(v)
	for i := range lt {
		if int(sc.sdist[lt[i].hub])+int(lt[i].dist) != best {
			continue
		}
		if k := sc.sidx[lt[i].hub]; k >= 0 {
			sc.add(th.folSet(th.outLab[k]))
		} else {
			sc.add(th.folSet(lt[i])) // hub is u: F from the in-label
		}
	}
	if rv := th.rank[v]; tail && int(sc.sdist[rv]) == best {
		sc.add(th.folSet(th.outLab[sc.sidx[rv]]))
	}
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
