package reach

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"microlink/internal/graph"
)

// rankInf sentinels an exhausted label list in refQueryRank's merge walk.
const rankInf = int32(1<<31 - 1)

// refQueryRank is the two-list sorted merge walk the builder's prune test
// ran before the scattered kernels replaced it, kept as their oracle: the
// build-time Eq. 5 evaluation over the mutable per-node label slices,
// appending the followee union into buf and returning it for reuse.
// Returned fol aliases buf and is valid until the next call.
func (w *thWork) refQueryRank(s, t graph.NodeID, buf []graph.NodeID) (int, []graph.NodeID, []graph.NodeID) {
	buf = buf[:0]
	if s == t {
		return 0, nil, buf
	}
	ls, lt := &w.out[s], &w.in[t]
	rs, rt := w.rank[s], w.rank[t]
	best := infHops
	fol := buf

	consider := func(d int, f []graph.NodeID) {
		if d > w.h || d > best {
			return
		}
		if d < best {
			best = d
			fol = fol[:0]
		}
		for _, x := range f {
			if !containsNode(fol, x) {
				fol = append(fol, x)
			}
		}
	}

	// Virtual self entries: hub = t (t ∈ Lout(s) directly) and hub = s
	// (s ∈ Lin(t); followee info comes from the in-label).
	i, j := 0, 0
	for i < len(ls.key) || j < len(lt.key) {
		hi, hj := rankInf, rankInf
		if i < len(ls.key) {
			hi = int32(ls.key[i] >> 8)
		}
		if j < len(lt.key) {
			hj = int32(lt.key[j] >> 8)
		}
		switch {
		case hi < hj:
			if hi == rt { // hub is t itself: d = d_s,t + 0
				consider(int(uint8(ls.key[i])), ls.fol(i))
			}
			i++
		case hj < hi:
			if hj == rs { // hub is s itself: d = 0 + d_s,t, F from in-label
				consider(int(uint8(lt.key[j])), lt.fol(j))
			}
			j++
		default:
			consider(int(uint8(ls.key[i]))+int(uint8(lt.key[j])), ls.fol(i))
			i++
			j++
		}
	}
	if best == infHops {
		return infHops, nil, fol
	}
	return best, fol, fol
}

// unfrozenLabels runs Algorithm 2's labeling over g without freezing it,
// leaving the per-node label lists the prune kernels read.
func unfrozenLabels(g *graph.Graph, h, batch int) *thWork {
	w := newThWork(g, h, false)
	w.buildLabels(1, batch)
	return w
}

// labelsBefore returns the label state the builder held just before the
// hub of rank cut ran, for cut on a batch boundary: a merged label is
// never rewritten and every list is sorted by hub rank, so it is each
// finished list's prefix of hubs ranked below cut.
func labelsBefore(w *thWork, cut int32) *thWork {
	c := *w
	prefix := func(lists []thList) []thList {
		p := make([]thList, len(lists))
		for u, l := range lists {
			j := 0
			for j < len(l.key) && int32(l.key[j]>>8) < cut {
				j++
			}
			nids := int32(0)
			if j > 0 {
				nids = l.end[j-1]
			}
			p[u] = thList{key: l.key[:j:j], end: l.end[:j:j], ids: l.ids[:nids:nids]}
		}
		return p
	}
	c.out, c.in = prefix(w.out), prefix(w.in)
	return &c
}

// TestPruneKernelsMatchMergeWalk pins the scattered prune kernels to the
// merge walk they replaced, under ==: for every root and every other
// node, backwardPrune's (distance, u ∈ F) equals refQueryRank(s, root)'s
// for every followee u of s and for one node that is not a followee, and
// at every level L in 1..H the early-exit first-visit tests agree with
// the class the merge walk implies: forwardCovered(t, L) is
// refQueryRank(root, t) ≤ L, and backwardVisit(s, u, L) is thExpand when
// L is below the walk's distance, thTie when L equals it and u is not in
// its followee union, and thPruned otherwise. The
// label states are the ones the kernels meet mid-build (batch boundaries
// a quarter and half way through, and the finished build); on a finished
// build alone the hub = s and hub = t entries never decide a test. Graph
// sizes straddle the partition spans; batch 32 leaves in-batch redundant
// labels the serial build would have pruned, so the kernels see
// equal-distance ties.
func TestPruneKernelsMatchMergeWalk(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, n := range []int{3, 63, 64, 65, 129, 150} {
			g := randomGraph(r, n, 5*n)
			for _, h := range []int{2, 3, 4} {
				for _, batch := range []int{1, 32} {
					w := unfrozenLabels(g, h, batch)
					prev := -1
					for _, cut := range []int{n / 4, n / 2, n} {
						if cut = min(n, (cut+batch-1)/batch*batch); cut == prev {
							continue
						}
						prev = cut
						t.Run(fmt.Sprintf("seed=%d/n=%d/H=%d/batch=%d/before=%d", seed, n, h, batch, cut), func(t *testing.T) {
							checkPruneKernels(t, labelsBefore(w, int32(cut)), int32(cut))
						})
					}
				}
			}
		}
	}
}

// TestEq5KernelMatchesMergeWalk pins the frozen arena's one Eq. 5
// kernel to the merge walk under ==: for every ordered pair (u, v) of
// TestPruneKernelsMatchMergeWalk's grid, Query's distance and sorted
// followee set equal refQueryRank's over the same labels before freeze,
// and R and RFrom equal score over that answer.
func TestEq5KernelMatchesMergeWalk(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, n := range []int{3, 63, 64, 65, 129, 150} {
			g := randomGraph(r, n, 5*n)
			all := make([]graph.NodeID, n)
			for v := range all {
				all[v] = graph.NodeID(v)
			}
			for _, h := range []int{2, 3, 4} {
				for _, batch := range []int{1, 32} {
					ref, th := frozenWithRef(g, h, batch)
					for u := graph.NodeID(0); int(u) < n; u++ {
						checkEq5Kernel(t, fmt.Sprintf("seed=%d/n=%d/H=%d/batch=%d", seed, n, h, batch), ref, th, u, all)
					}
				}
			}
		}
	}
}

// frozenWithRef builds the 2-hop cover of g and returns it together with
// the label lists it was frozen from, which freeze itself releases.
func frozenWithRef(g *graph.Graph, h, batch int) (*thWork, *TwoHop) {
	w := unfrozenLabels(g, h, batch)
	ref := labelsBefore(w, int32(g.NumNodes()))
	return ref, w.freeze(1)
}

// checkEq5Kernel compares th's Query, R and RFrom from u against
// refQueryRank + score over ref, th's labels before freeze, for every
// target in vs, and asserts RFrom writes nothing past len(vs).
func checkEq5Kernel(t testing.TB, name string, ref *thWork, th *TwoHop, u graph.NodeID, vs []graph.NodeID) {
	t.Helper()
	out := make([]float64, len(vs)+1)
	out[len(vs)] = -1
	th.RFrom(u, vs, out[:len(vs)])
	if out[len(vs)] != -1 {
		t.Fatalf("%s: RFrom wrote past len(vs)", name)
	}
	var buf []graph.NodeID
	for i, v := range vs {
		var d int
		var fol []graph.NodeID
		d, fol, buf = ref.refQueryRank(u, v, buf)
		ok := d < infHops
		want := Result{Dist: d, Followees: slices.Clone(fol)}
		slices.Sort(want.Followees)
		if d == 1 && len(fol) == 0 {
			want.Followees = []graph.NodeID{v} // Query's direct-edge convention
		}
		got, gotOK := th.Query(u, v)
		if gotOK != ok || ok && (got.Dist != want.Dist || !slices.Equal(got.Followees, want.Followees)) {
			t.Fatalf("%s: Query(%d, %d) = %v %v, merge walk %v %v", name, u, v, got, gotOK, want, ok)
		}
		wantR := score(Result{Dist: d, Followees: fol}, ok, th.g.OutDegree(u))
		if r := th.R(u, v); r != wantR {
			t.Fatalf("%s: R(%d, %d) = %v, merge walk %v", name, u, v, r, wantR)
		}
		if out[i] != wantR {
			t.Fatalf("%s: RFrom(%d, …)[%d] (v=%d) = %v, merge walk %v", name, u, i, v, out[i], wantR)
		}
	}
}

// checkPruneKernels compares the kernels with the merge walk over w for
// every root the build still runs against this state (rank ≥ cut), or
// for every root when the build is finished (cut = n).
func checkPruneKernels(t *testing.T, w *thWork, cut int32) {
	t.Helper()
	n := w.g.NumNodes()
	b := newThBuilder(w)
	var buf []graph.NodeID
	for root := graph.NodeID(0); int(root) < n; root++ {
		k := w.rank[root]
		if k < cut && int(cut) < n {
			continue
		}

		b.scatter(w.out[root], k)
		for v := graph.NodeID(0); int(v) < n; v++ {
			if v == root {
				continue
			}
			var want int
			want, _, buf = w.refQueryRank(root, v, buf)
			for level := 1; level <= w.h; level++ {
				if got := b.forwardCovered(v, level); got != (want <= level) {
					t.Fatalf("forwardCovered(%d → %d, L=%d) = %v, merge walk distance %d", root, v, level, got, want)
				}
			}
		}
		b.unscatter()
		requireUnscattered(t, b)

		b.scatter(w.in[root], k)
		for s := graph.NodeID(0); int(s) < n; s++ {
			if s == root {
				continue
			}
			var want int
			var fol []graph.NodeID
			want, fol, buf = w.refQueryRank(s, root, buf)
			out := w.g.Out(s)
			probe := append([]graph.NodeID(nil), out...)
			for v := graph.NodeID(0); int(v) < n; v++ {
				if !containsNode(out, v) {
					probe = append(probe, v) // one non-member
					break
				}
			}
			for _, u := range probe {
				got, gotIn := b.backwardPrune(s, u)
				wantIn := containsNode(fol, u)
				if got != want || gotIn != wantIn {
					t.Fatalf("backwardPrune(%d → %d, u=%d) = (%d, %v), merge walk (%d, %v)",
						s, root, u, got, gotIn, want, wantIn)
				}
				for level := 1; level <= w.h; level++ {
					wantVisit := thPruned
					switch {
					case level < want:
						wantVisit = thExpand
					case level == want && !wantIn:
						wantVisit = thTie
					}
					if got := b.backwardVisit(s, u, level); got != wantVisit {
						t.Fatalf("backwardVisit(%d → %d, u=%d, L=%d) = %d, merge walk (%d, %v) implies %d",
							s, root, u, level, got, want, wantIn, wantVisit)
					}
				}
			}
		}
		b.unscatter()
		requireUnscattered(t, b)
	}
}

// requireUnscattered asserts unscatter left no scattered entry behind:
// the next root's kernels must not see this one's labels.
func requireUnscattered(t *testing.T, b *thBuilder) {
	t.Helper()
	for r, d := range b.sdist {
		if d != thUnset {
			t.Fatalf("sdist[%d] = %d after unscatter", r, d)
		}
	}
}

// TestPruneKernelsZeroAlloc is the runtime ground truth behind the
// kernels' microlint:noalloc annotations: scattering a root, running
// every prune test against it (each reads label followee sets through
// thList.fol) and clearing it allocates nothing.
func TestPruneKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g := randomGraph(r, 200, 1200)
	w := unfrozenLabels(g, DefaultMaxHops, DefaultTwoHopBatch)
	b := newThBuilder(w)
	root := w.order[len(w.order)/2]
	k := w.rank[root]
	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		v := graph.NodeID(i % g.NumNodes())
		i++
		if v == root {
			return // the kernels never test the root against itself
		}
		b.scatter(w.in[root], k)
		for _, u := range g.Out(v) {
			b.backwardPrune(v, u)
			for level := 1; level <= w.h; level++ {
				b.backwardVisit(v, u, level)
			}
		}
		b.unscatter()
		b.scatter(w.out[root], k)
		for level := 1; level <= w.h; level++ {
			b.forwardCovered(v, level)
		}
		b.unscatter()
	}); avg != 0 {
		t.Fatalf("prune kernels allocate %.2f per run, want 0", avg)
	}
}
