package reach

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microlink/internal/graph"
)

// Construction of the extended 2-hop cover (Algorithm 2) in rank-ordered
// hub batches. Every hub's pruned backward/forward BFS prunes against the
// label set frozen at the start of its batch and buffers its own label
// additions in a private delta; when the batch's BFS epoch ends the
// deltas merge into the global label lists in rank order. With batch size
// 1 this is exactly the serial Algorithm 2 (each hub sees every earlier
// hub's labels). With larger batches hubs inside one batch do not see
// each other, which only weakens pruning: distances stay exact — a label
// records the true BFS level from its hub, and the query minimum is
// achieved by whichever hub covers the pair — while the index may grow
// slightly (measured by `linkbench index`; within a few percent at the
// default batch size).
//
// The merge itself is barrier-free in the sense that no single goroutine
// serialises it: labels are per-node, so the label lists are partitioned
// by node range and the deltas' partition buckets merge concurrently into
// disjoint partitions, claimed dynamically by the same workers that ran
// the BFS. The only global synchronisation left is the batch epoch (a
// WaitGroup fence between a batch's BFS and its merge, and between the
// merge and the next batch's BFS) that keeps rank-order pruning correct.
// Because each hub's BFS depends only on the frozen snapshot, each node's
// list receives its labels in rank order regardless of which worker owns
// its partition, and the freeze stitches the followee pool in a fixed
// serial order, the output is bit-for-bit deterministic for a fixed batch
// size, independent of worker count, partition count, and scheduling.
//
// The build-form label lists hold no pointer per label: each node's list
// is one thList (a packed hub<<8|dist key array the prune kernels scan,
// plus the followee sets laid end to end in one id array), and a hub's
// delta draws its followee sets from one slab reused across batches, so
// emitting a label allocates nothing and the GC never walks the lists.
// The prune tests on a node's first visit return at the first label pair
// that decides them (see backwardVisit and forwardCovered).

// DefaultTwoHopBatch is the hub batch size used when TwoHopOptions.BatchSize
// is unset, whatever the worker count.
const DefaultTwoHopBatch = 32

// Node-range partitioning of the label arena. Spans are powers of two so
// the emit hot path maps node → partition with one shift; the span floor
// keeps buckets from degenerating into per-node slices on small graphs
// and the partition cap bounds per-delta bucket headers on huge ones.
const (
	thMinPartShift  = 6   // minimum span: 64 nodes per partition
	thMaxPartitions = 256 // upper bound on partition count
)

// partitionScheme fixes the node-range partitioning for an n-node build.
// It depends only on n — never on the worker count — so everything
// downstream of it (delta bucket layout, merge order, freeze stitch
// order) is a pure function of the graph and the batch size.
func partitionScheme(n int) (shift uint, parts int) {
	shift = thMinPartShift
	for n>>shift >= thMaxPartitions {
		shift++
	}
	parts = (n + (1 << shift) - 1) >> shift
	if parts < 1 {
		parts = 1
	}
	return shift, parts
}

// thList is one node's label list in build form, sorted by hub rank and
// free of pointers per label: key[i] is label i's hub<<8 | dist (the only
// array the prune kernels scan), and its followee set, in discovery order,
// is ids[end[i-1]:end[i]] (end[-1] taken as 0). The delta merge appends
// to all three; freeze() sorts each set in place and converts the lists
// into the label columns the query path reads.
//
// microlint:owned — build-time state reached only through the build's own
// thWork; the query path reads the frozen arenas, never these.
type thList struct {
	key []uint32
	end []int32
	ids []graph.NodeID
}

// thKey packs a label's hub rank and distance into a thList key.
func thKey(hub int32, dist uint8) uint32 { return uint32(hub)<<8 | uint32(dist) }

// fol is label i's followee set, a window of ids.
//
// microlint:noalloc
func (l *thList) fol(i int) []graph.NodeID {
	lo := int32(0)
	if i > 0 {
		lo = l.end[i-1]
	}
	return l.ids[lo:l.end[i]]
}

// push appends one label (the merge's only write to a list).
func (l *thList) push(key uint32, fol []graph.NodeID) {
	l.key = append(l.key, key)
	l.ids = append(l.ids, fol...)
	l.end = append(l.end, int32(len(l.ids)))
}

// maxTwoHopNodes caps the graphs BuildTwoHop accepts: a thList key keeps
// the hub rank in its upper 24 bits.
const maxTwoHopNodes = 1 << 24

// thWork is the mutable label state during construction.
type thWork struct {
	g      *graph.Graph
	h      int
	rank   []int32
	order  []graph.NodeID
	out    []thList // Lout, per node, sorted by hub rank
	in     []thList // Lin, per node, sorted by hub rank
	pshift uint     // node → partition is node >> pshift
	nparts int      // number of node-range partitions
}

func newThWork(g *graph.Graph, h int, randomOrder bool) *thWork {
	n := g.NumNodes()
	if n > maxTwoHopNodes {
		panic("reach: BuildTwoHop supports at most 1<<24 nodes")
	}
	w := &thWork{
		g:     g,
		h:     h,
		rank:  make([]int32, n),
		order: make([]graph.NodeID, n),
		out:   make([]thList, n),
		in:    make([]thList, n),
	}
	w.pshift, w.nparts = partitionScheme(n)
	for i := 0; i < n; i++ {
		w.order[i] = graph.NodeID(i)
	}
	if !randomOrder {
		sort.Slice(w.order, func(i, j int) bool {
			di, dj := g.Degree(w.order[i]), g.Degree(w.order[j])
			if di != dj {
				return di > dj
			}
			return w.order[i] < w.order[j]
		})
	}
	for r, v := range w.order {
		w.rank[v] = int32(r)
	}
	return w
}

// BuildTwoHop runs Algorithm 2 over g, which may have at most 1<<24
// nodes (maxTwoHopNodes).
func BuildTwoHop(g *graph.Graph, opts TwoHopOptions) *TwoHop {
	h := min(opts.MaxHops, maxTwoHopHops)
	if h <= 0 {
		h = DefaultMaxHops
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultTwoHopBatch
	}
	start := time.Now()
	w := newThWork(g, h, opts.RandomOrder)
	tm := w.buildLabels(workers, batch)
	freezeStart := time.Now()
	th := w.freeze(workers)
	tm.freeze = time.Since(freezeStart)
	th.stats = BuildStats{
		BuildTime: time.Since(start),
		Entries:   int64(len(th.out.hub)) + int64(len(th.in.hub)),
	}
	th.info.Workers = workers
	th.info.BatchSize = batch
	th.info.BFSTime = tm.bfs
	th.info.MergeTime = tm.merge
	th.info.BarrierWait = tm.barrier
	th.info.FreezeTime = tm.freeze
	if tm.merge > 0 && len(tm.mergeBusy) > 0 {
		util := make([]float64, len(tm.mergeBusy))
		for i, busy := range tm.mergeBusy {
			util[i] = busy.Seconds() / tm.merge.Seconds()
		}
		th.info.MergeUtilization = util
	}
	return th
}

// thBuildTimings is the per-stage wall-clock split buildLabels and freeze
// accumulate: bfs and merge are their phases' wall clocks (each including
// its own straggler tail), barrier is the mean per-worker idle spent at
// the epoch fences waiting for the slowest worker, freeze the arena
// conversion, and mergeBusy each merge worker's total busy time (for the
// utilization report).
type thBuildTimings struct {
	bfs, barrier, merge, freeze time.Duration
	mergeBusy                   []time.Duration
}

// stragglerIdle converts per-worker phase finish times into the mean idle
// a worker spent waiting for the phase's slowest member — the honest
// "barrier wait": with dynamic claiming it is bounded by one work item,
// and it collapses to ~0 when the workers timeshare a single core.
func stragglerIdle(finish []time.Duration) time.Duration {
	if len(finish) == 0 {
		return 0
	}
	var maxf time.Duration
	for _, f := range finish {
		if f > maxf {
			maxf = f
		}
	}
	var idle time.Duration
	for _, f := range finish {
		idle += maxf - f
	}
	return idle / time.Duration(len(finish))
}

// thDeltaLab is one buffered label: its thList key and its followee set,
// a cap-limited window of the owning delta's slab (so a same-level
// revisit that grows the set copies it out instead of overwriting the
// next label's window).
type thDeltaLab struct {
	key uint32
	fol []graph.NodeID
}

// thDeltaRun is one partition bucket of a delta: the bucket's labeled
// nodes in BFS discovery order plus their label entries, index-aligned.
//
// microlint:owned — reached only through its owning thDelta's bucket
// slices.
type thDeltaRun struct {
	nodes []graph.NodeID
	labs  []thDeltaLab
}

// thDelta buffers one hub's label additions until the batch epoch, in
// per-node-range partition buckets so the merge can fan out workers over
// disjoint partitions without locks.
//
// microlint:owned — deltas live in a slice indexed by batch slot; the
// worker that claimed the slot's hub fills its buckets during the BFS
// phase, and after the epoch fence each bucket is read by exactly one
// merge worker (partitions are claimed off an atomic counter).
type thDelta struct {
	out  []thDeltaRun // one bucket per node-range partition
	in   []thDeltaRun
	slab []graph.NodeID // every label's followee set, reused across batches
}

func (d *thDelta) init(nparts int) {
	d.out = make([]thDeltaRun, nparts)
	d.in = make([]thDeltaRun, nparts)
}

func (d *thDelta) reset() {
	for i := range d.out {
		d.out[i].nodes = d.out[i].nodes[:0]
		d.out[i].labs = d.out[i].labs[:0]
	}
	for i := range d.in {
		d.in[i].nodes = d.in[i].nodes[:0]
		d.in[i].labs = d.in[i].labs[:0]
	}
	d.slab = d.slab[:0]
}

// set copies fol into the slab and returns its cap-limited window there.
func (d *thDelta) set(fol ...graph.NodeID) []graph.NodeID {
	lo := len(d.slab)
	d.slab = append(d.slab, fol...)
	return d.slab[lo:len(d.slab):len(d.slab)]
}

// thBuilder is one worker's BFS scratch: O(n) distance marks (shared
// graph.DistMap), the per-node position of this hub's buffered label,
// forward-BFS first-hop sets, and the BFS root's scattered label list.
// Builders are reused across batches through thBuildPool; the labels a
// BFS emits go to its hub's thDelta, whose buckets and followee slab are
// reused across batches too.
//
// microlint:owned — per-worker scratch by contract: thBuildPool.acquire
// hands each builder to at most one worker at a time.
type thBuilder struct {
	w     *thWork
	marks *graph.DistMap
	pos   []int32          // node → index into the current delta's bucket labs
	fpath [][]graph.NodeID // forward BFS first-hop followee sets
	cur   []graph.NodeID   // frontier double buffer
	nxt   []graph.NodeID

	// The BFS root's label list scattered by hub rank (see scatter):
	// sdist[r] is the root's distance through hub r, thUnset when the
	// root has no hub-r label; sidx[r] that label's index in sroot, read
	// only where sdist is set. sroot is the scattered list itself: no label
	// list is written during a BFS, so unscatter walks it again to clear
	// sdist.
	sdist []uint8
	sidx  []int32
	sroot thList
	sk    int32 // the root's own rank, the virtual self entry
}

// thUnset marks a hub rank the scattered root has no label for. Every
// label distance is ≤ H ≤ maxTwoHopHops < thUnset, so thUnset plus any
// label distance exceeds H and the prune kernels need no separate
// presence test.
const thUnset = 0xff

// maxTwoHopHops caps the hop bound: label distances are uint8 and
// thUnset is reserved.
const maxTwoHopHops = thUnset - 1

func newThBuilder(w *thWork) *thBuilder {
	n := w.g.NumNodes()
	b := &thBuilder{
		w:     w,
		marks: graph.NewDistMap(n),
		pos:   make([]int32, n),
		fpath: make([][]graph.NodeID, n),
		sdist: make([]uint8, n),
		sidx:  make([]int32, n),
	}
	for i := range b.pos {
		b.pos[i] = -1
	}
	for i := range b.sdist {
		b.sdist[i] = thUnset
	}
	return b
}

func (b *thBuilder) reset() {
	for _, v := range b.marks.Touched() {
		b.pos[v] = -1
		b.fpath[v] = b.fpath[v][:0]
	}
	b.marks.Reset()
	b.unscatter()
}

func (b *thBuilder) runHub(vk graph.NodeID, k int32, d *thDelta) {
	b.backward(vk, k, d)
	b.forward(vk, k, d)
}

// emitOut buffers s's hub-k out-label at distance dist with followee set
// {u}.
func (b *thBuilder) emitOut(d *thDelta, s graph.NodeID, k int32, dist int32, u graph.NodeID) {
	r := &d.out[uint32(s)>>b.w.pshift]
	b.pos[s] = int32(len(r.labs))
	r.nodes = append(r.nodes, s)
	r.labs = append(r.labs, thDeltaLab{key: thKey(k, uint8(dist)), fol: d.set(u)})
}

// emitIn buffers t's hub-k in-label at distance dist with followee set
// firstHop (copied).
func (b *thBuilder) emitIn(d *thDelta, t graph.NodeID, k int32, dist int32, firstHop []graph.NodeID) {
	r := &d.in[uint32(t)>>b.w.pshift]
	b.pos[t] = int32(len(r.labs))
	r.nodes = append(r.nodes, t)
	r.labs = append(r.labs, thDeltaLab{key: thKey(k, uint8(dist)), fol: d.set(firstHop...)})
}

// microlint:noalloc
func containsNode(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Eq. 5 prune kernels. Every pair hub k's BFS tests shares the endpoint
// vk, so the BFS scatters vk's label list once into sdist/sidx and each
// test scans only the other endpoint's keys (the "temporary array" of
// pruned landmark labeling, Akiba et al., SIGMOD 2013). The kernels
// evaluate Eq. 5 over the label lists exactly as a two-list sorted merge
// would, but the first-visit tests return at the first pair that decides
// them: what a BFS does with a node depends only on how the minimum
// pair-sum compares with the node's level L, and, at a tie, on whether u
// is in the followee union at L — never on the minimum itself. During a
// batch's BFS phase no label list is written (deltas merge after the
// epoch fence), so the scattered copy stays current for the whole BFS.

// scatter loads the BFS root's label list l into sdist/sidx, plus the
// virtual self entry sdist[k] = 0 for the root's own rank k: the pair
// whose hub is the root itself then scores as the ordinary sum 0 + dist.
//
// microlint:noalloc
func (b *thBuilder) scatter(l thList, k int32) {
	for i, key := range l.key {
		b.sdist[key>>8] = uint8(key)
		b.sidx[key>>8] = int32(i)
	}
	b.sdist[k] = 0
	b.sroot, b.sk = l, k
}

// unscatter clears every sdist entry scatter set.
//
// microlint:noalloc
func (b *thBuilder) unscatter() {
	for _, key := range b.sroot.key {
		b.sdist[key>>8] = thUnset
	}
	b.sdist[b.sk] = thUnset
	b.sroot = thList{}
}

// forwardCovered is the forward first-visit test: whether some pair from
// the scattered root vk to t — t's hub-t entry in Lout(vk) or a Lin(t)
// label — sums to at most level. It returns at the first such pair.
//
// microlint:noalloc
func (b *thBuilder) forwardCovered(t graph.NodeID, level int) bool {
	if int(b.sdist[b.w.rank[t]]) <= level { // hub is t: d_vk,t + 0
		return true
	}
	for _, key := range b.w.in[t].key {
		if int(b.sdist[key>>8])+int(key&0xff) <= level {
			return true
		}
	}
	return false
}

// thVisit is what a backward first visit at level L does with a node.
type thVisit uint8

const (
	thExpand thVisit = iota // no pair within L: label it and expand it
	thTie                   // minimum is L, u not in its followee union: label only
	thPruned                // a pair below L, or one at L whose set holds u: neither
)

// backwardVisit is the backward first-visit test from s to the scattered
// root vk at level L, reached via followee u. It returns thPruned at the
// first pair below L, and at the first pair at L whose followee set holds
// u: then either a shorter pair exists or u is in the union at L, and
// Algorithm 2 neither labels nor expands s in both cases. A common hub
// contributes the out-label's set, the hub-s entry of Lin(vk) its own.
//
// microlint:noalloc
func (b *thBuilder) backwardVisit(s, u graph.NodeID, level int) thVisit {
	w := b.w
	tie := false
	if rs := w.rank[s]; int(b.sdist[rs]) <= level { // hub is s: 0 + d_s,vk
		if int(b.sdist[rs]) < level || containsNode(b.sroot.fol(int(b.sidx[rs])), u) {
			return thPruned
		}
		tie = true
	}
	ls := &w.out[s]
	for i, key := range ls.key {
		switch d := int(b.sdist[key>>8]) + int(key&0xff); {
		case d > level:
		case d < level:
			return thPruned
		case containsNode(ls.fol(i), u):
			return thPruned
		default:
			tie = true
		}
	}
	if tie {
		return thTie
	}
	return thExpand
}

// backwardPrune is Eq. 5 from s to the scattered root vk, scanned in
// full: the distance (infHops when none is within H) and whether
// followee u is in the followee union of the labels achieving it. An
// equal distance ORs membership in, a smaller one replaces it. The
// same-level revisit needs the whole answer: a shorter pair turns its
// "u is covered" into "u is not".
//
// microlint:noalloc
func (b *thBuilder) backwardPrune(s, u graph.NodeID) (int, bool) {
	w := b.w
	best, inF := infHops, false
	if rs := w.rank[s]; int(b.sdist[rs]) <= w.h { // hub is s: 0 + d_s,vk
		best, inF = int(b.sdist[rs]), containsNode(b.sroot.fol(int(b.sidx[rs])), u)
	}
	ls := &w.out[s]
	for i, key := range ls.key {
		d := int(b.sdist[key>>8]) + int(key&0xff)
		switch {
		case d > w.h || d > best:
		case d < best:
			best, inF = d, containsNode(ls.fol(i), u)
		case !inF:
			inF = containsNode(ls.fol(i), u)
		}
	}
	return best, inF
}

// backward performs the pruned backward BFS of Algorithm 2 lines 5–29,
// labeling every node s that reaches vk with (vk, d_s,vk, F_s,vk). Labels
// are buffered in d; pruning consults only the frozen batch-start state
// (during a round the label lists of s and vk it reads are never touched
// by the round itself, so with batch size 1 this is the serial algorithm).
func (b *thBuilder) backward(vk graph.NodeID, k int32, d *thDelta) {
	defer b.reset()
	w := b.w
	b.scatter(w.in[vk], k)
	b.marks.Set(vk, 0)
	frontier := append(b.cur[:0], vk)
	next := b.nxt[:0]
	for length := int32(1); length <= int32(w.h) && len(frontier) > 0; length++ {
		next = next[:0]
		for _, u := range frontier {
			for _, s := range w.g.In(u) {
				if s == vk {
					continue
				}
				switch dd := b.marks.Dist(s); {
				case dd != -1 && dd < length:
					// Reached on an earlier level: shorter path known.
				case dd == length:
					// Same-level revisit via a different followee u: a new
					// shortest path (lines 20–27).
					if p := b.pos[s]; p >= 0 {
						if ent := &d.out[uint32(s)>>w.pshift].labs[p]; uint8(ent.key) == uint8(length) && !containsNode(ent.fol, u) {
							ent.fol = append(ent.fol, u)
						}
					} else {
						// Covered by earlier hubs at this distance; record u
						// only if those hubs do not already encode it.
						if _, inF := b.backwardPrune(s, u); !inF {
							b.emitOut(d, s, k, length, u)
						}
					}
				default: // first visit this round
					b.marks.Set(s, length)
					switch b.backwardVisit(s, u, int(length)) {
					case thExpand: // lines 11–19: shorter path found
						b.emitOut(d, s, k, length, u)
						next = append(next, s)
					case thTie: // lines 20–27: equal path via u, not expanded
						b.emitOut(d, s, k, length, u)
					case thPruned: // earlier hubs already cover it
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	b.cur, b.nxt = frontier[:0], next[:0]
}

// forward performs the pruned forward BFS of Algorithm 2 line 30, labeling
// every node t reachable from vk with (vk, d_vk,t) plus — our extension —
// the hub's first-hop followee set F_vk,t, which Eq. 5 needs when the hub
// itself is the query source.
func (b *thBuilder) forward(vk graph.NodeID, k int32, d *thDelta) {
	defer b.reset()
	w := b.w
	b.scatter(w.out[vk], k)
	b.marks.Set(vk, 0)
	frontier := append(b.cur[:0], vk)
	next := b.nxt[:0]
	for length := int32(1); length <= int32(w.h) && len(frontier) > 0; length++ {
		next = next[:0]
		for _, u := range frontier {
			var pf []graph.NodeID
			if length > 1 {
				pf = b.fpath[u]
			}
			for _, t := range w.g.Out(u) {
				if t == vk {
					continue
				}
				firstHop := pf
				var one [1]graph.NodeID
				if length == 1 {
					one[0] = t
					firstHop = one[:]
				}
				switch dd := b.marks.Dist(t); {
				case dd != -1 && dd < length:
					// Earlier level: shorter path known.
				case dd == length:
					// Same-level revisit: merge first-hop sets.
					merged := false
					for _, f := range firstHop {
						if !containsNode(b.fpath[t], f) {
							b.fpath[t] = append(b.fpath[t], f)
							merged = true
						}
					}
					if merged {
						if p := b.pos[t]; p >= 0 {
							if ent := &d.in[uint32(t)>>w.pshift].labs[p]; uint8(ent.key) == uint8(length) {
								for _, f := range firstHop {
									if !containsNode(ent.fol, f) {
										ent.fol = append(ent.fol, f)
									}
								}
							}
						}
					}
				default: // first visit
					b.marks.Set(t, length)
					b.fpath[t] = append(b.fpath[t][:0], firstHop...)
					// Line 30 labels and expands only on improvement.
					if !b.forwardCovered(t, int(length)) {
						b.emitIn(d, t, k, length, firstHop)
						next = append(next, t)
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	b.cur, b.nxt = frontier[:0], next[:0]
}

// thBuildPool hands out per-worker BFS scratch across batches so the O(n)
// builder state is allocated once per worker, not once per batch.
type thBuildPool struct {
	w    *thWork
	mu   sync.Mutex   // microlint:lock-order reach-build
	free []*thBuilder // microlint:guarded-by mu
}

func (p *thBuildPool) acquire() *thBuilder {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return newThBuilder(p.w)
}

func (p *thBuildPool) release(b *thBuilder) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// mergeDeltaPartition folds every delta's partition-p bucket into the
// per-node label lists, deltas in batch-slot (= hub rank) order, so each
// node's list stays sorted by hub rank; each followee set is copied out
// of its delta's slab. Partitions are disjoint node ranges, so concurrent
// calls for different p touch disjoint entries of out and in: the merge
// needs no locks, only the batch epoch around it.
func mergeDeltaPartition(out, in []thList, ds []thDelta, p int) {
	for i := range ds {
		r := &ds[i].out[p]
		for j, s := range r.nodes {
			out[s].push(r.labs[j].key, r.labs[j].fol)
		}
		r = &ds[i].in[p]
		for j, t := range r.nodes {
			in[t].push(r.labs[j].key, r.labs[j].fol)
		}
	}
}

// buildLabels processes the ranked hubs in batches of batchSize. Each
// batch runs two phases over the same worker budget: the BFS phase fans
// hubs across goroutines (claimed dynamically off an atomic counter —
// ranks inside a batch differ wildly in BFS cost, so static striping
// would idle workers behind stragglers), then the merge phase fans the
// node-range partitions across goroutines the same way. The WaitGroup
// fences between the phases are the batch epoch that keeps rank-order
// pruning correct; there is no single-goroutine merge serialising the
// build. Returns the accumulated per-stage timings.
func (w *thWork) buildLabels(workers, batchSize int) thBuildTimings {
	n := len(w.order)
	pool := &thBuildPool{w: w}
	deltas := make([]thDelta, batchSize)
	for i := range deltas {
		deltas[i].init(w.nparts)
	}
	var tm thBuildTimings
	nwm := min(workers, w.nparts) // merge fan-out
	if workers > 1 && nwm > 1 {
		tm.mergeBusy = make([]time.Duration, nwm)
	}
	bfsFinish := make([]time.Duration, workers)
	mergeFinish := make([]time.Duration, nwm)
	out, in := w.out, w.in
	for lo := 0; lo < n; lo += batchSize {
		m := min(batchSize, n-lo)
		ds := deltas[:m]
		for i := range ds {
			ds[i].reset()
		}

		// Phase 1: pruned hub BFS against the batch-start label snapshot.
		bfsStart := time.Now()
		if nwb := min(workers, m); nwb <= 1 {
			b := pool.acquire()
			for i := 0; i < m; i++ {
				b.runHub(w.order[lo+i], int32(lo+i), &ds[i])
			}
			pool.release(b)
		} else {
			finish := bfsFinish[:nwb]
			var nextHub atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < nwb; g++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					b := pool.acquire()
					defer pool.release(b)
					for {
						i := int(nextHub.Add(1)) - 1
						if i >= m {
							break
						}
						b.runHub(w.order[lo+i], int32(lo+i), &ds[i])
					}
					finish[slot] = time.Since(bfsStart)
				}(g)
			}
			wg.Wait()
			tm.barrier += stragglerIdle(finish)
		}
		tm.bfs += time.Since(bfsStart)

		// Phase 2: merge the deltas' partition buckets into the disjoint
		// node-range partitions of the label lists, concurrently.
		mergeStart := time.Now()
		if nwm <= 1 || workers <= 1 {
			for p := 0; p < w.nparts; p++ {
				mergeDeltaPartition(out, in, ds, p)
			}
		} else {
			finish := mergeFinish[:nwm]
			nparts := w.nparts
			var nextPart atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < nwm; g++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					for {
						p := int(nextPart.Add(1)) - 1
						if p >= nparts {
							break
						}
						mergeDeltaPartition(out, in, ds, p)
					}
					finish[slot] = time.Since(mergeStart)
				}(g)
			}
			wg.Wait()
			tm.barrier += stragglerIdle(finish)
			for slot, f := range finish {
				tm.mergeBusy[slot] += f
			}
		}
		tm.merge += time.Since(mergeStart)
	}
	return tm
}

// maxInternedFol bounds the followee-set length the freeze-time interning
// table keys on; longer sets (rare — a hub's whole first-hop neighborhood)
// are appended to the pool directly without a lookup.
const maxInternedFol = 16

// hashNodeIDs is the content hash the freeze-time interning table keys
// on: FNV-1a over the set's ids with the length folded in. Candidates
// sharing a hash are verified by content compare, so collisions cost a
// probe, never correctness.
func hashNodeIDs(s []graph.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(len(s))*prime64
	for _, v := range s {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	return h
}

// lookupIntern scans a hash bucket of set ids for a set equal to fol in
// the build-form pool cut by the set table setOff.
func lookupIntern(cands []int32, setOff []int32, pool, fol []graph.NodeID) (int32, bool) {
	for _, c := range cands {
		run := pool[setOff[c]:setOff[c+1]]
		if len(run) != len(fol) {
			continue
		}
		match := true
		for k := range run {
			if run[k] != fol[k] {
				match = false
				break
			}
		}
		if match {
			return c, true
		}
	}
	return 0, false
}

// alloc sizes c's columns for the build-form lists src and fills its
// offsets.
func (c *thCols) alloc(src []thList) {
	c.off = make([]int32, len(src)+1)
	for u := range src {
		c.off[u+1] = c.off[u] + int32(len(src[u].key))
	}
	total := c.off[len(src)]
	c.hub = make([]int32, total)
	c.dist = make([]uint8, total)
	c.set = make([]int32, total)
}

// prepFreeze is the parallel half of the column conversion for nodes
// [lo, hi): it sorts every label's followee set in place inside its
// list's ids, fills the hub and distance columns, and records each
// sorted set's content hash so the interning stitch never rebuilds keys.
// Returns the range's followee-reference count (the pre-intern FolRefs
// contribution). Safe to run concurrently for disjoint node ranges:
// every write lands in the range's own column entries.
func prepFreeze(src []thList, c *thCols, hash []uint64, lo, hi int) int64 {
	var refs int64
	for u := lo; u < hi; u++ {
		l := &src[u]
		base := int(c.off[u])
		for i, key := range l.key {
			fol := l.fol(i)
			sortNodeIDs(fol)
			refs += int64(len(fol))
			c.hub[base+i], c.dist[base+i] = int32(key>>8), uint8(key)
			hash[base+i] = hashNodeIDs(fol)
		}
	}
	return refs
}

// freeze converts the built per-node label lists into the label columns
// of TwoHop: labels become cache-contiguous runs, every followee set is
// sorted ascending (so identical sets hash and compare equal), and
// identical small sets are interned once in the shared pool.
//
// The conversion runs in two stages. Stage 1 fans the per-label work that
// needs no shared state — followee-set sorting, the hub and distance
// columns, content hashes — across workers over the build's node-range
// partitions. Stage 2 stitches the shared followee pool serially in a
// fixed order (out direction then in, nodes ascending, labels in rank
// order — exactly the order a fully serial freeze visits labels),
// numbering each run it appends with the next set id, so the pool, the
// set table and every column are identical for every worker count.
func (w *thWork) freeze(workers int) *TwoHop {
	n := w.g.NumNodes()
	th := &TwoHop{
		g:     w.g,
		h:     w.h,
		rank:  w.rank,
		order: w.order,
	}
	th.out.alloc(w.out)
	th.in.alloc(w.in)
	outHash := make([]uint64, len(th.out.hub))
	inHash := make([]uint64, len(th.in.hub))

	// Stage 1: parallel per-label prep over the node-range partitions.
	var refs int64
	if nwf := min(workers, w.nparts); nwf <= 1 {
		refs = prepFreeze(w.out, &th.out, outHash, 0, n) +
			prepFreeze(w.in, &th.in, inHash, 0, n)
	} else {
		span := 1 << w.pshift
		nparts := w.nparts
		partRefs := make([]int64, nparts)
		out, in := w.out, w.in
		outCols, inCols := &th.out, &th.in
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < nwf; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					p := int(next.Add(1)) - 1
					if p >= nparts {
						return
					}
					lo := p * span
					hi := min(lo+span, n)
					partRefs[p] = prepFreeze(out, outCols, outHash, lo, hi) +
						prepFreeze(in, inCols, inHash, lo, hi)
				}
			}()
		}
		wg.Wait()
		for _, r := range partRefs {
			refs += r
		}
	}
	th.info.FolRefs = refs

	// Stage 2: serial interning stitch in the canonical label order. Set 0
	// is the empty set, which the set column's zero value already names.
	th.setOff = []int32{0, 0}
	var pool []graph.NodeID
	intern := make(map[uint64][]int32)
	stitch := func(src []thList, c *thCols, hash []uint64) {
		for u := 0; u < n; u++ {
			l := &src[u]
			base := int(c.off[u])
			for i := range l.key {
				fol := l.fol(i)
				if len(fol) == 0 {
					continue
				}
				small := len(fol) <= maxInternedFol
				h := hash[base+i]
				s, ok := int32(0), false
				if small {
					s, ok = lookupIntern(intern[h], th.setOff, pool, fol)
				}
				if !ok {
					s = int32(len(th.setOff) - 1)
					pool = append(pool, fol...)
					th.setOff = append(th.setOff, int32(len(pool)))
					if small {
						intern[h] = append(intern[h], s)
					}
				}
				c.set[base+i] = s
			}
			src[u] = thList{} // release build storage as we go
		}
	}
	stitch(w.out, &th.out, outHash)
	stitch(w.in, &th.in, inHash)

	// Install the pool at its width and shrink the set table to exact
	// capacity, so SizeBytes reports reality.
	th.setPool(pool)
	th.setOff = append(make([]int32, 0, len(th.setOff)), th.setOff...)
	th.info.FolPool = int64(len(pool))
	th.info.Partitions = w.nparts
	return th
}

// sortNodeIDs sorts a (small) followee set ascending in place.
//
// microlint:noalloc
func sortNodeIDs(s []graph.NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
