// Package recency implements entity recency (paper §4.2): sliding-window
// burst detection over the complemented knowledgebase (Eq. 9) plus the
// PageRank-style recency-propagation model (Eq. 11) that lets bursts on
// highly related entities (NBA → Michael Jordan (basketball), ICML →
// Michael Jordan (ML)) reinforce each other.
//
// The propagation network is built per the paper's three heuristics: edges
// carry WLM topical relatedness (Eq. 10); edges below θ₂ are cut; edges
// between co-candidates of the same mention are removed (recency must
// discriminate candidates, not equalise them); and propagation is confined
// to the resulting clusters of strongly connected entities, which keeps
// the online cost bounded.
//
// Interpretation note. Eq. 9 normalises recency over the candidate set
// E_m, which is only known at query time, while the propagation of Eq. 11
// is mention-independent. We therefore propagate the *raw* burst signal
// (|D_e^τ| gated by θ₁) over the network and apply the candidate-set
// normalisation of Eq. 9 to the propagated scores when a query arrives.
package recency

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"microlink/internal/kb"
	"microlink/internal/obs"
)

// DefaultTheta2 is θ₂, the relatedness threshold below which WLM edges
// are cut from the propagation network (Table 3). Options.Theta2 ≤ 0
// selects it, in BuildPropNet's callers and in fill alike.
const DefaultTheta2 = 0.6

// Options configures recency scoring; zero values select the paper's
// defaults from Table 3.
type Options struct {
	// Tau is the sliding-window length in seconds (default 3 days).
	Tau int64
	// Theta1 is the burst threshold: fewer than Theta1 recent postings is
	// no burst (default 10).
	Theta1 int
	// Theta2 is the relatedness threshold for propagation edges
	// (default DefaultTheta2). The scorer is handed a built PropNet, so
	// the value only matters to whoever builds it (BuildPropNet).
	Theta2 float64
	// Lambda trades off gathered vs propagated recency in Eq. 11
	// (default 0.5).
	Lambda float64
	// Iterations bounds the propagation fixpoint loop (default 10).
	Iterations int
	// NoPropagation disables the propagation model when true — the
	// ablation of Fig. 4(d). The zero value enables propagation.
	NoPropagation bool
}

func (o *Options) fill() {
	if o.Tau <= 0 {
		o.Tau = 3 * 24 * 3600
	}
	if o.Theta1 <= 0 {
		o.Theta1 = 10
	}
	if o.Theta2 <= 0 {
		o.Theta2 = DefaultTheta2
	}
	if o.Lambda <= 0 {
		o.Lambda = 0.5
	}
	if o.Iterations <= 0 {
		o.Iterations = 10
	}
}

// PropNet is the recency propagation network: thresholded, same-mention-
// pruned WLM edges partitioned into clusters (connected components — the
// "Graph-Cut" of §4.2). Immutable after construction.
type PropNet struct {
	// adjacency per member entity; only entities with ≥1 edge appear.
	// Kept for Edges; the propagation loop reads the frozen clusters.
	adj map[kb.EntityID][]PropEdge
	// clusterOf and localIdx are dense per-entity: the entity's cluster id
	// (−1 when unclustered) and its position in that cluster's members.
	clusterOf []int32
	localIdx  []int32
	clusters  []propCluster
}

// propCluster is one cluster frozen into CSR form. Row i holds member i's
// edges in adj order, so the pull sums of Eq. 11 associate exactly as a
// walk over adj would.
type propCluster struct {
	members []kb.EntityID // ascending entity id
	off     []int32       // row i is nbr/rp[off[i]:off[i+1]]
	nbr     []int32       // cluster-local index of the edge's far end
	rp      []float64     // the edge's reverse probability
}

// PropEdge is one edge of the propagation network. P is the normalised
// propagation probability P(from, to) = w(from,to) / Σ_k w(from,k); RP is
// the reverse probability P(to, from), precomputed because the pull-form
// iteration of Eq. 11 consumes it on every step.
type PropEdge struct {
	To kb.EntityID
	W  float64 // raw WLM relatedness
	P  float64 // row-normalised probability
	RP float64 // reverse probability P(To, from)
}

// BuildPropNet constructs the propagation network for k with relatedness
// threshold theta2. Co-candidate pairs — entities sharing any surface form
// — are excluded per the first heuristic of §4.2.
func BuildPropNet(k *kb.KB, theta2 float64) *PropNet {
	sameMention := make(map[[2]kb.EntityID]struct{})
	k.EachSurface(func(_ string, cands []kb.EntityID) {
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				a, b := cands[i], cands[j]
				if a > b {
					a, b = b, a
				}
				sameMention[[2]kb.EntityID{a, b}] = struct{}{}
			}
		}
	})

	net := &PropNet{adj: make(map[kb.EntityID][]PropEdge)}
	for _, p := range k.RelatedPairs(theta2) {
		a, b := p.A, p.B
		if a > b {
			a, b = b, a
		}
		if _, excluded := sameMention[[2]kb.EntityID{a, b}]; excluded {
			continue
		}
		net.adj[p.A] = append(net.adj[p.A], PropEdge{To: p.B, W: p.Rel})
		net.adj[p.B] = append(net.adj[p.B], PropEdge{To: p.A, W: p.Rel})
	}
	// Row-normalise outgoing weights into probabilities. Both directions of
	// an edge carry the same W, so P(To, from) is W over To's row sum.
	sums := make(map[kb.EntityID]float64, len(net.adj))
	for e, edges := range net.adj {
		for _, ed := range edges {
			sums[e] += ed.W
		}
	}
	for e, edges := range net.adj {
		for i := range edges {
			edges[i].P = edges[i].W / sums[e]
			edges[i].RP = edges[i].W / sums[edges[i].To]
		}
	}
	net.findClusters(k.NumEntities())
	return net
}

// findClusters labels connected components and freezes each into CSR
// form. Seeds are visited in ascending entity order so that cluster IDs —
// and the order of the clusters slice — are the same on every run.
func (n *PropNet) findClusters(numEntities int) {
	n.clusterOf = make([]int32, numEntities)
	n.localIdx = make([]int32, numEntities)
	for i := range n.clusterOf {
		n.clusterOf[i] = -1
	}
	for e := kb.EntityID(0); int(e) < numEntities; e++ {
		if n.clusterOf[e] >= 0 || len(n.adj[e]) == 0 {
			continue
		}
		// BFS flood fill.
		id := int32(len(n.clusters))
		queue := []kb.EntityID{e}
		n.clusterOf[e] = id
		var members []kb.EntityID
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			members = append(members, cur)
			for _, ed := range n.adj[cur] {
				if n.clusterOf[ed.To] < 0 {
					n.clusterOf[ed.To] = id
					queue = append(queue, ed.To)
				}
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for i, m := range members {
			n.localIdx[m] = int32(i)
		}
		c := propCluster{members: members, off: make([]int32, 1, len(members)+1)}
		for _, m := range members {
			for _, ed := range n.adj[m] {
				c.nbr = append(c.nbr, n.localIdx[ed.To])
				c.rp = append(c.rp, ed.RP)
			}
			c.off = append(c.off, int32(len(c.nbr)))
		}
		n.clusters = append(n.clusters, c)
	}
}

// NumClusters returns the number of clusters.
func (n *PropNet) NumClusters() int { return len(n.clusters) }

// ClusterOf returns the cluster members of entity e (including e), or nil
// when e participates in no propagation edge.
func (n *PropNet) ClusterOf(e kb.EntityID) []kb.EntityID {
	if e < 0 || int(e) >= len(n.clusterOf) || n.clusterOf[e] < 0 {
		return nil
	}
	return n.clusters[n.clusterOf[e]].members
}

// Edges returns e's propagation edges (shared slice; do not modify).
func (n *PropNet) Edges(e kb.EntityID) []PropEdge { return n.adj[e] }

// NumEdges returns the number of undirected propagation edges.
func (n *PropNet) NumEdges() int {
	total := 0
	for _, edges := range n.adj {
		total += len(edges)
	}
	return total / 2
}

// Scorer computes recency scores S_r(e) (Eq. 9 + Eq. 11) over a
// complemented knowledgebase, once per distinct cluster among the
// candidates. Eq. 11's result is a pure function of the cluster's gated
// window vector s0 (the network, λ and the iteration count are fixed), and
// s0 cannot change while no posting is linked and no posting of a member
// enters or leaves its window. So each cluster keeps memoWays entries,
// each a propagation stamped with the posting generation and the range of
// instants over which its s0 holds: a call inside an entry's range at the
// entry's generation returns its vector without reading a count or taking
// a lock. Any other call reads the members' counts under one read lock; an
// entry with an equal s0 is re-stamped with the new range, and only an s0
// no entry holds runs Eq. 11. Safe for concurrent use.
type Scorer struct {
	ckb  *kb.Complemented
	net  *PropNet
	opts Options

	// memo holds memoWays slots per cluster (cluster id's are
	// memo[id*memoWays:][:memoWays]), nil until used. A published entry
	// is never written again.
	memo []atomic.Pointer[propMemo]
	// published numbers memo entries in publication order; a full
	// cluster replaces its entry published first.
	published atomic.Uint64
	// hits and runs are microlink_recency_propagations_total{memo}:
	// bursting cluster propagations answered from the memo, or by an
	// Eq. 11 run. Registered by NewScorer, nil (no-op) without a registry.
	hits, runs *obs.Counter
}

// memoWays is how many window entries each cluster keeps (DESIGN §5.2,
// "Recency memo"): enough for two clients whose clocks sit in different
// s0 windows to keep one each, plus windows a trailing clock walks into
// after a leading one published them.
const memoWays = 4

// propMemo is one cluster propagation: the gated window vector it started
// from and the Eq. 11 result, both aligned with the members (both nil for
// a window where no member bursts), valid for every now in [from, until]
// while the posting generation is gen. seq is its publication number.
type propMemo struct {
	s0, vec     []float64
	gen         uint64
	from, until int64
	seq         uint64
}

// NewScorer returns a Scorer counting its propagations into
// microlink_recency_propagations_total{memo} of reg (memo="hit" is
// MemoHits, memo="miss" Propagations); a nil reg counts nothing. net may
// be nil only when opts.NoPropagation is set.
func NewScorer(ckb *kb.Complemented, net *PropNet, opts Options, reg *obs.Registry) *Scorer {
	opts.fill()
	if net == nil && !opts.NoPropagation {
		panic("recency: propagation enabled but no propagation network given")
	}
	v := reg.CounterVec("microlink_recency_propagations_total",
		"Bursting recency-cluster propagations (Eq. 11), by whether the per-cluster memo answered them.", "memo")
	s := &Scorer{ckb: ckb, net: net, opts: opts, hits: v.With("hit"), runs: v.With("miss")}
	if net != nil {
		s.memo = make([]atomic.Pointer[propMemo], memoWays*len(net.clusters))
	}
	return s
}

// Options returns the effective (defaults-filled) options.
func (s *Scorer) Options() Options { return s.opts }

// Clusters returns the propagation-network cluster containing e (including
// e itself), or nil when e is unclustered or propagation is disabled.
func (s *Scorer) Clusters(e kb.EntityID) []kb.EntityID {
	if s.net == nil {
		return nil
	}
	return s.net.ClusterOf(e)
}

// MemoHits reports how many propagation runs the per-cluster memo saved:
// bursting cluster lookups answered by an entry, inside its window or
// with an equal window vector. It reads
// microlink_recency_propagations_total{memo="hit"}: 0 without a registry.
func (s *Scorer) MemoHits() int64 { return int64(s.hits.Value()) }

// Propagations reports how many times Eq. 11 ran: bursting cluster
// propagations the memo could not answer. It reads
// microlink_recency_propagations_total{memo="miss"}: 0 without a registry.
func (s *Scorer) Propagations() int64 { return int64(s.runs.Value()) }

// raw returns the gated burst signal of Eq. 9's numerator: |D_e^τ| when it
// reaches θ₁, else 0.
func (s *Scorer) raw(e kb.EntityID, now int64) float64 {
	return s.gate(s.ckb.RecentCount(e, now, s.opts.Tau))
}

// gate is θ₁'s cut of one window count.
func (s *Scorer) gate(n int) float64 {
	if n < s.opts.Theta1 {
		return 0
	}
	return float64(n)
}

// Propagated returns entity e's recency signal after propagation at time
// now (before candidate-set normalisation): the e-th component of the
// fixpoint of Eq. 11 computed over e's cluster only.
func (s *Scorer) Propagated(e kb.EntityID, now int64) float64 {
	var v [1]float64
	s.propagated(now, []kb.EntityID{e}, v[:], nil)
	return v[0]
}

// Scores computes S_r(e) for every candidate: the propagated burst signals
// normalised over the candidate set (Eq. 9's normalisation). The result
// sums to 1 when any candidate has a burst, else is all zeros.
func (s *Scorer) Scores(now int64, cands []kb.EntityID) []float64 {
	return s.scores(now, cands, nil)
}

// View is a Scorer pinned at one instant. Eq. 11 is mention-independent,
// so every candidate set scored at the same now shares each cluster's
// propagated vector: a View propagates a cluster at its first use and
// answers every later use from the vector it kept. Its Scores equals
// Scorer.Scores at the same instant bit for bit, provided the
// knowledgebase does not change under it (LinkBatch holds the linker's
// read lock for a view's whole life). Not safe for concurrent use.
type View struct {
	s    *Scorer
	now  int64
	kept []keptVec // clusters propagated so far, in first-use order
}

// keptVec is one cluster's propagated vector, aligned with its members;
// nil when no member bursts.
type keptVec struct {
	id  int32
	vec []float64
}

// At returns a View of s pinned at now.
func (s *Scorer) At(now int64) *View { return &View{s: s, now: now} }

// Scores is Scorer.Scores(now, cands) at the view's instant.
func (v *View) Scores(cands []kb.EntityID) []float64 {
	return v.s.scores(v.now, cands, v)
}

// scores normalises the propagated signals over the candidate set.
func (s *Scorer) scores(now int64, cands []kb.EntityID, v *View) []float64 {
	out := make([]float64, len(cands))
	s.propagated(now, cands, out, v)
	var sum float64
	for _, x := range out {
		sum += x
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// propScratch holds the window counts and vectors of one propagation run,
// pooled so that Scores allocates only its result.
type propScratch struct {
	counts       []int
	s0, cur, nxt []float64
}

var propPool = sync.Pool{New: func() any { return new(propScratch) }}

// propagated writes each candidate's propagated signal into out, which
// arrives zeroed. A cluster is looked up once, at its first candidate,
// for all of them: through v when it is non-nil, else propagated afresh.
func (s *Scorer) propagated(now int64, cands []kb.EntityID, out []float64, v *View) {
next:
	for i, e := range cands {
		if s.opts.NoPropagation || s.net.clusterOf[e] < 0 {
			out[i] = s.raw(e, now)
			continue
		}
		id := s.net.clusterOf[e]
		for _, x := range cands[:i] {
			if s.net.clusterOf[x] == id {
				continue next
			}
		}
		vec, ok := v.lookup(id)
		if !ok {
			vec = s.propagateCluster(id, now)
			v.keep(id, vec)
		}
		if vec == nil {
			continue // no member bursts: the cluster's entries stay 0
		}
		for j := i; j < len(cands); j++ {
			if s.net.clusterOf[cands[j]] == id {
				out[j] = vec[s.net.localIdx[cands[j]]]
			}
		}
	}
}

// lookup returns the vector v kept for cluster id. A nil view keeps none.
func (v *View) lookup(id int32) ([]float64, bool) {
	if v == nil {
		return nil, false
	}
	for _, k := range v.kept {
		if k.id == id {
			return k.vec, true
		}
	}
	return nil, false
}

// keep records cluster id's vector; a no-op on a nil view.
func (v *View) keep(id int32, vec []float64) {
	if v != nil {
		v.kept = append(v.kept, keptVec{id, vec})
	}
}

// propagateCluster returns cluster id's Eq. 11 vector at now, aligned
// with its members, or nil when no member bursts. A returned vector is a
// published memo entry's, never written again: an entry whose window
// holds now at the current generation answers outright; otherwise the
// counts are read, an entry with an equal s0 is re-published under the
// new window, and only a new s0 propagates into a fresh entry.
func (s *Scorer) propagateCluster(id int32, now int64) []float64 {
	slots := s.memo[int(id)*memoWays:][:memoWays]
	gen := s.ckb.Generation()
	for i := range slots {
		if m := slots[i].Load(); m != nil && m.gen == gen && m.from <= now && now <= m.until {
			if m.vec != nil {
				s.hits.Inc()
			}
			return m.vec
		}
	}
	sc := propPool.Get().(*propScratch)
	defer propPool.Put(sc)
	c := &s.net.clusters[id]
	n := len(c.members)
	if cap(sc.s0) < n {
		sc.counts = make([]int, n)
		sc.s0, sc.cur, sc.nxt = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	gen, from, until := s.ckb.RecentCounts(c.members, now, s.opts.Tau, sc.counts[:n])
	s0, burst := sc.s0[:n], false
	for i, k := range sc.counts[:n] {
		s0[i] = s.gate(k)
		burst = burst || s0[i] > 0
	}
	victim, oldest := 0, uint64(math.MaxUint64)
	for i := range slots {
		m := slots[i].Load()
		if m == nil {
			victim, oldest = i, 0
			continue
		}
		if burst == (m.vec != nil) && (!burst || slices.Equal(m.s0, s0)) {
			if burst {
				s.hits.Inc()
			}
			slots[i].Store(&propMemo{s0: m.s0, vec: m.vec, gen: gen, from: from, until: until, seq: s.published.Add(1)})
			return m.vec
		}
		if m.seq < oldest {
			victim, oldest = i, m.seq
		}
	}
	m := &propMemo{gen: gen, from: from, until: until, seq: s.published.Add(1)}
	if burst {
		s.runs.Inc()
		vec := c.iterate(s0, sc.cur[:n], sc.nxt[:n], s.opts.Lambda, s.opts.Iterations)
		buf := make([]float64, 2*n)
		copy(buf, s0)
		copy(buf[n:], vec)
		m.s0, m.vec = buf[:n:n], buf[n:]
	}
	slots[victim].Store(m)
	return m.vec
}

// iterate is the Eq. 11 fixpoint loop in pull form,
// S_r^i[m] = λ·S0[m] + (1−λ)·Σ_j P(j,m)·S_r^{i−1}[j], with P(j,m) the
// edge's precomputed reverse probability. It returns whichever of cur and
// nxt holds the last iterate.
//
// microlint:noalloc
func (c *propCluster) iterate(s0, cur, nxt []float64, lam float64, iters int) []float64 {
	copy(cur, s0)
	for it := 0; it < iters; it++ {
		maxDelta := 0.0
		for i := range s0 {
			acc := 0.0
			for k := c.off[i]; k < c.off[i+1]; k++ {
				acc += c.rp[k] * cur[c.nbr[k]]
			}
			nxt[i] = lam*s0[i] + (1-lam)*acc
			if d := abs(nxt[i] - cur[i]); d > maxDelta {
				maxDelta = d
			}
		}
		cur, nxt = nxt, cur
		if maxDelta < 1e-9 {
			break
		}
	}
	return cur
}

// microlint:noalloc
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
