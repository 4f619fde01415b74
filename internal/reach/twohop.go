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
// label columns: per direction, a per-node offset array over three
// parallel columns (hub rank, distance, followee set id). A set id names
// a run of one shared followee pool through a set table; each distinct
// run is sorted ascending, identical small sets are interned once, and
// the pool holds 16-bit ids when the graph has at most 65536 nodes.
// One kernel evaluates Eq. 5 over them (RFrom's scatter-and-scan; R and
// Query are its one-target cases): the source's out-labels are scattered
// by hub rank, each target's in-label run is scanned against them over
// its hub and distance columns alone, and the followee sets of the hubs
// at the minimum are deduplicated on an epoch-stamped mark array.
// SizeBytes reports the measured arena sizes, not an estimate.
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

	// Frozen label columns, one thCols per direction. Set s is the
	// followee run [setOff[s], setOff[s+1]) of the pool, sorted ascending
	// by node id; set 0 is the empty set, and the others number the
	// pool's runs in the order the freeze appended them. The pool holds
	// its ids in pool16 when every node id fits in 16 bits (narrowPool),
	// else in pool32; the other is nil.
	out, in thCols
	setOff  []int32
	pool16  []uint16
	pool32  []graph.NodeID

	stats BuildStats
	info  TwoHopBuildInfo
}

// thCols is one direction's frozen labels: node u's labels are entries
// off[u]:off[u+1] of three parallel columns, sorted by hub rank. The Eq. 5
// scans of a target's in-labels read hub and dist alone (5 B a label) and
// its set column only at the hubs at the minimum; the source's out-labels
// are scattered whole. For out-labels the set is F_{v→hub}; for in-labels
// it is F_{hub→v}.
type thCols struct {
	off  []int32 // n+1 CSR offsets
	hub  []int32 // hub rank
	dist []uint8 // distance to or from the hub
	set  []int32 // followee set id
}

// labels returns node u's hub and distance columns and the index of its
// first label. Callers reslice dist to len(hub), so that the compiler
// checks its bounds once, not per label.
//
// microlint:noalloc
func (c *thCols) labels(u graph.NodeID) (hub []int32, dist []uint8, lo int32) {
	lo, hi := c.off[u], c.off[u+1]
	return c.hub[lo:hi], c.dist[lo:hi], lo
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
	// into the CSR label columns. BarrierWait is the mean per-worker idle
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
// loaded with ReadTwoHop reports zero Workers, BatchSize and timings —
// figures of a build that the image does not hold — and the FolRefs,
// FolPool and Partitions of the build that wrote it.
func (th *TwoHop) BuildInfo() TwoHopBuildInfo { return th.info }

// narrowPool reports whether a cover over n nodes keeps its followee pool
// in 16-bit ids, in memory and in its image: ids lie in [0,n).
func narrowPool(n int) bool { return n <= 1<<16 }

// setPool installs the followee pool ids at its width, exact-capacity.
func (th *TwoHop) setPool(ids []graph.NodeID) {
	if !narrowPool(len(th.order)) {
		th.pool32 = append(make([]graph.NodeID, 0, len(ids)), ids...)
		return
	}
	th.pool16 = make([]uint16, len(ids))
	for i, v := range ids {
		th.pool16[i] = uint16(v)
	}
}

// poolLen is the number of ids in the followee pool.
func (th *TwoHop) poolLen() int { return len(th.pool16) + len(th.pool32) }

// appendSet appends followee set s to buf.
func (th *TwoHop) appendSet(buf []graph.NodeID, s int32) []graph.NodeID {
	lo, hi := th.setOff[s], th.setOff[s+1]
	if th.pool32 != nil {
		return append(buf, th.pool32[lo:hi]...)
	}
	for _, v := range th.pool16[lo:hi] {
		buf = append(buf, graph.NodeID(v))
	}
	return buf
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
// hub-r label; sset[r] that label's followee set id, or -1 for the
// virtual self entry, whose followee set is the in-label's. sset is read
// only where sdist is set, so union reaches a set in one step, without a
// cold read of the out set column. mark[w] == epoch means followee w is
// already in fol.
type rfScratch struct {
	sdist []uint8
	sset  []int32
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
		sc.sset = append(sc.sset, 0)
		sc.mark = append(sc.mark, 0)
	}
}

// addSet adds followee set s of th to the union.
//
// microlint:noalloc
func (sc *rfScratch) addSet(th *TwoHop, s int32) {
	lo, hi := th.setOff[s], th.setOff[s+1]
	if th.pool32 != nil {
		addIDs(sc, th.pool32[lo:hi])
	} else {
		addIDs(sc, th.pool16[lo:hi])
	}
}

// addIDs appends the members of set not yet marked this epoch to fol,
// marking them.
//
// microlint:noalloc
func addIDs[T uint16 | graph.NodeID](sc *rfScratch, set []T) {
	for _, w := range set {
		if sc.mark[w] != sc.epoch {
			sc.mark[w] = sc.epoch
			sc.fol = append(sc.fol, graph.NodeID(w))
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
	hub, dist, lo := th.out.labels(u)
	dist, set := dist[:len(hub)], th.out.set[lo:][:len(hub)]
	for i, r := range hub {
		sc.sdist[r] = dist[i]
		sc.sset[r] = set[i]
	}
	if ru := th.rank[u]; sc.sdist[ru] == thUnset {
		sc.sdist[ru], sc.sset[ru] = 0, -1
	}
	return sc
}

// release clears every sdist entry scatterOut set and returns sc to the
// pool.
//
// microlint:noalloc
func (th *TwoHop) release(sc *rfScratch, u graph.NodeID) {
	hub, _, _ := th.out.labels(u)
	for _, r := range hub {
		sc.sdist[r] = thUnset
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
	hub, dist, _ := th.in.labels(v)
	dist = dist[:len(hub)]
	rv := th.rank[v]
	best, selfIn := infHops, false
	for i, r := range hub {
		selfIn = selfIn || r == rv
		if d := int(sc.sdist[r]) + int(dist[i]); d <= th.h && d < best {
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
	hub, dist, lo := th.in.labels(v)
	dist = dist[:len(hub)]
	for i, r := range hub {
		if int(sc.sdist[r])+int(dist[i]) != best {
			continue
		}
		if s := sc.sset[r]; s >= 0 {
			sc.addSet(th, s)
		} else {
			sc.addSet(th, th.in.set[lo+int32(i)]) // hub is u: F from the in-label
		}
	}
	if rv := th.rank[v]; tail && int(sc.sdist[rv]) == best {
		sc.addSet(th, sc.sset[rv])
	}
}

// SizeBytes implements Index. With arena storage this is measured, not
// estimated: the sum of the actual backing-array and header sizes of the
// frozen index (the columns, pool and set table are exact-capacity after
// freeze). A label costs 9 bytes (hub i32, dist u8, set i32); a distinct
// followee set costs its ids (2 bytes each under narrowPool, else 4) plus
// one set-table entry.
func (th *TwoHop) SizeBytes() int64 {
	b := int64(unsafe.Sizeof(*th))
	b += int64(len(th.rank)) * int64(unsafe.Sizeof(int32(0)))
	b += int64(len(th.order)) * int64(unsafe.Sizeof(graph.NodeID(0)))
	for _, c := range [2]*thCols{&th.out, &th.in} {
		b += int64(len(c.off)+len(c.hub)+len(c.set)) * int64(unsafe.Sizeof(int32(0)))
		b += int64(len(c.dist))
	}
	b += int64(len(th.setOff)) * int64(unsafe.Sizeof(int32(0)))
	b += int64(len(th.pool16)) * int64(unsafe.Sizeof(uint16(0)))
	b += int64(len(th.pool32)) * int64(unsafe.Sizeof(graph.NodeID(0)))
	return b
}

// BuildStats implements Index.
func (th *TwoHop) BuildStats() BuildStats { return th.stats }

// LabelCounts returns the total number of out- and in-labels, for the
// index-size ablation.
func (th *TwoHop) LabelCounts() (out, in int64) {
	return int64(len(th.out.hub)), int64(len(th.in.hub))
}
