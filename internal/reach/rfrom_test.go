package reach

import (
	"fmt"
	"math/rand"
	"testing"

	"microlink/internal/graph"
	"microlink/internal/obs"
)

// rfromGraph is randomGraph plus three nodes with no out-edges: the last
// one has no edges at all (unreachable from everyone), the two before it
// are followed by node 0. Sources and targets then cover out-degree 0,
// unreachable targets and d = 1.
func rfromGraph(r *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n + 3)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	b.AddEdge(0, graph.NodeID(n))
	b.AddEdge(0, graph.NodeID(n+1))
	return b.Build()
}

// rfromTargets draws k targets for u: u itself, a followee, the isolated
// node and a repeat whenever k leaves room, random nodes otherwise.
func rfromTargets(r *rand.Rand, g *graph.Graph, u graph.NodeID, k int) []graph.NodeID {
	n := g.NumNodes()
	vs := make([]graph.NodeID, 0, k)
	if fol := g.Out(u); len(fol) > 0 {
		vs = append(vs, fol[r.Intn(len(fol))])
	}
	vs = append(vs, u, graph.NodeID(n-1))
	for len(vs) < k {
		if len(vs) > 3 && r.Intn(4) == 0 {
			vs = append(vs, vs[r.Intn(len(vs))]) // duplicate target
			continue
		}
		vs = append(vs, graph.NodeID(r.Intn(n)))
	}
	vs = vs[:k]
	r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// checkRFrom asserts RFrom(u, vs) equals a loop over R under ==, and that
// RFrom writes nothing past len(vs).
func checkRFrom(t testing.TB, name string, idx Index, u graph.NodeID, vs []graph.NodeID) {
	t.Helper()
	out := make([]float64, len(vs)+1)
	out[len(vs)] = -1
	idx.RFrom(u, vs, out[:len(vs)])
	for i, v := range vs {
		if want := idx.R(u, v); out[i] != want {
			t.Fatalf("%s: RFrom(%d, …)[%d] (v=%d) = %v, R = %v", name, u, i, v, out[i], want)
		}
	}
	if out[len(vs)] != -1 {
		t.Fatalf("%s: RFrom wrote past len(vs)", name)
	}
}

type namedIndex struct {
	name string
	idx  Index
}

// rfromSubstrates is every substrate over g at hop bound h, 2-hop covers
// at batch sizes 1 and 32, and a streaming substrate before and after an
// Install of a rebuild that added edges.
func rfromSubstrates(r *rand.Rand, g *graph.Graph, h int) []namedIndex {
	st := NewStreaming(g, TwoHopOptions{MaxHops: h})
	out := []namedIndex{
		{"naive", NewNaive(g, h)},
		{"pruned", NewPrunedSearch(g, PrunedOptions{MaxHops: h})},
		{"closure", BuildTransitiveClosure(g, ClosureOptions{MaxHops: h})},
		{"twohop/batch=1", BuildTwoHop(g, TwoHopOptions{MaxHops: h, BatchSize: 1})},
		{"twohop/batch=32", BuildTwoHop(g, TwoHopOptions{MaxHops: h, BatchSize: 32})},
		{"streaming/before-install", st},
	}
	moved := NewStreaming(g, TwoHopOptions{MaxHops: h})
	n := g.NumNodes()
	for i := 0; i < 8; i++ {
		insertOne(moved, graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	moved.Install(moved.Rebuild())
	return append(out, namedIndex{"streaming/after-install", moved})
}

// TestRFromMatchesR checks every substrate's RFrom against its own loop
// over R, on graphs with out-degree-0 sources, unreachable targets and
// direct follows. For the 2-hop cover both run the one Eq. 5 kernel;
// TestEq5KernelMatchesMergeWalk pins that kernel to an oracle.
func TestRFromMatchesR(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	var sawDirect, sawUnreachable, sawZeroOut bool
	for _, c := range []struct{ h, n, m int }{{2, 60, 180}, {3, 60, 180}, {4, 60, 180}, {3, 200, 900}, {4, 200, 900}} {
		h, g := c.h, rfromGraph(r, c.n, c.m)
		oracle := NewNaive(g, h)
		for _, sub := range rfromSubstrates(r, g, h) {
			for _, k := range []int{1, 32} {
				for q := 0; q < 40; q++ {
					u := graph.NodeID(r.Intn(g.NumNodes()))
					if q == 0 {
						u = graph.NodeID(g.NumNodes() - 2) // out-degree 0
					}
					vs := rfromTargets(r, g, u, k)
					checkRFrom(t, fmt.Sprintf("H=%d/%s/batch=%d", h, sub.name, k), sub.idx, u, vs)
					sawZeroOut = sawZeroOut || g.OutDegree(u) == 0
					for _, v := range vs {
						res, ok := oracle.Query(u, v)
						sawDirect = sawDirect || ok && res.Dist == 1
						sawUnreachable = sawUnreachable || !ok
					}
				}
			}
		}
	}
	if !sawDirect || !sawUnreachable || !sawZeroOut {
		t.Fatalf("coverage: d=1 %v, unreachable %v, out-degree 0 %v", sawDirect, sawUnreachable, sawZeroOut)
	}
}

// TestInstrumentedRFromCounts: one RFrom call is len(vs) queries on the
// counter and one latency sample.
func TestInstrumentedRFromCounts(t *testing.T) {
	g := diamond()
	x := Instrument(BuildTwoHop(g, TwoHopOptions{MaxHops: 3}), obs.NewRegistry())
	vs := []graph.NodeID{3, 3, 0, 5, 1}
	checkRFrom(t, "instrumented", x, 0, vs)
	// checkRFrom made one RFrom call and len(vs) R calls.
	if got, want := x.queries.Value(), uint64(2*len(vs)); got != want {
		t.Fatalf("queries counter = %d, want %d", got, want)
	}
	if got, want := x.seconds.Count(), uint64(1+len(vs)); got != want {
		t.Fatalf("latency samples = %d, want %d", got, want)
	}
}

// FuzzRFromMatchesR checks RFrom on arbitrary graphs, hop bounds and
// target lists: for the 2-hop cover (both batch shapes) against the merge
// walk over the labels before freeze, with Query and R alongside, and for
// the streaming substrate after an Install against a loop over R.
func FuzzRFromMatchesR(f *testing.F) {
	f.Add(int64(0), uint8(20), uint8(3), uint8(0), []byte{0, 1, 2, 3, 3})
	f.Add(int64(7), uint8(40), uint8(2), uint8(5), []byte{5, 5, 9, 40, 41, 42})
	f.Add(int64(-1), uint8(1), uint8(4), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n, h, src uint8, raw []byte) {
		r := rand.New(rand.NewSource(seed))
		g := rfromGraph(r, 1+int(n%48), 3*int(n%48))
		hops := 1 + int(h%4)
		nodes := g.NumNodes()
		u := graph.NodeID(int(src) % nodes)
		vs := make([]graph.NodeID, len(raw))
		for i, b := range raw {
			vs[i] = graph.NodeID(int(b) % nodes)
		}
		st := NewStreaming(g, TwoHopOptions{MaxHops: hops})
		insertOne(st, u, graph.NodeID(r.Intn(nodes)))
		st.Install(st.Rebuild())
		for _, batch := range []int{1, DefaultTwoHopBatch} {
			ref, th := frozenWithRef(g, hops, batch)
			checkEq5Kernel(t, fmt.Sprintf("twohop/batch=%d", batch), ref, th, u, vs)
		}
		checkRFrom(t, "streaming", st, u, vs)
	})
}

// TestTwoHopRFromZeroAlloc is the runtime ground truth behind RFrom's
// microlint:noalloc annotations: once the scratch pool is warm, a call
// allocates nothing.
func TestTwoHopRFromZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	r := rand.New(rand.NewSource(77))
	g := rfromGraph(r, 200, 1200)
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	vs := rfromTargets(r, g, 0, 32)
	out := make([]float64, len(vs))
	th.RFrom(0, vs, out) // warm the pool
	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		th.RFrom(graph.NodeID(i%g.NumNodes()), vs, out)
		i++
	}); avg != 0 {
		t.Fatalf("RFrom allocates %.2f per call, want 0", avg)
	}
}

// TestKindName names every substrate, through the Instrumented wrapper
// too.
func TestKindName(t *testing.T) {
	g := diamond()
	cases := []struct {
		idx  Index
		want string
	}{
		{NewNaive(g, 3), "naive"},
		{NewPrunedSearch(g, PrunedOptions{MaxHops: 3}), "pruned"},
		{BuildTransitiveClosure(g, ClosureOptions{MaxHops: 3}), "closure"},
		{BuildTwoHop(g, TwoHopOptions{MaxHops: 3}), "twohop"},
		{NewStreaming(g, TwoHopOptions{MaxHops: 3}), "streaming"},
	}
	for _, c := range cases {
		if got := KindName(c.idx); got != c.want {
			t.Errorf("KindName(%T) = %q, want %q", c.idx, got, c.want)
		}
		x := Instrument(c.idx, obs.NewRegistry())
		if got := KindName(x); got != c.want {
			t.Errorf("KindName(Instrumented(%T)) = %q, want %q", c.idx, got, c.want)
		}
	}
}
