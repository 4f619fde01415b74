package reach

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"microlink/internal/graph"
)

// insertOne adds u → v through InsertEdges, reporting whether it was new.
func insertOne(st *Streaming, u, v graph.NodeID) bool {
	return st.InsertEdges([][2]graph.NodeID{{u, v}}) == 1
}

// edgeOracle is the dumbest possible model of Streaming's live graph: a
// set of edges.
type edgeOracle struct {
	n     int
	edges map[[2]graph.NodeID]bool
}

func newEdgeOracle(g *graph.Graph) *edgeOracle {
	o := &edgeOracle{n: g.NumNodes(), edges: make(map[[2]graph.NodeID]bool)}
	for u := 0; u < o.n; u++ {
		for _, v := range g.Out(graph.NodeID(u)) {
			o.edges[[2]graph.NodeID{graph.NodeID(u), v}] = true
		}
	}
	return o
}

// insert reports whether u → v is new, valid, and not a self-loop.
func (o *edgeOracle) insert(u, v graph.NodeID) bool {
	k := [2]graph.NodeID{u, v}
	if u == v || u < 0 || int(u) >= o.n || v < 0 || int(v) >= o.n || o.edges[k] {
		return false
	}
	o.edges[k] = true
	return true
}

// check compares every adjacency list of g against the oracle.
func (o *edgeOracle) check(t *testing.T, g *graph.Graph) {
	t.Helper()
	if g.NumEdges() != len(o.edges) {
		t.Fatalf("snapshot has %d edges, oracle %d", g.NumEdges(), len(o.edges))
	}
	out := make([][]graph.NodeID, o.n)
	in := make([][]graph.NodeID, o.n)
	for e := range o.edges {
		out[e[0]] = append(out[e[0]], e[1])
		in[e[1]] = append(in[e[1]], e[0])
	}
	for u := 0; u < o.n; u++ {
		slices.Sort(out[u])
		slices.Sort(in[u])
		if !slices.Equal(g.Out(graph.NodeID(u)), out[u]) {
			t.Fatalf("Out(%d) = %v, oracle %v", u, g.Out(graph.NodeID(u)), out[u])
		}
		if !slices.Equal(g.In(graph.NodeID(u)), in[u]) {
			t.Fatalf("In(%d) = %v, oracle %v", u, g.In(graph.NodeID(u)), in[u])
		}
	}
}

// checkCapture requires Capture's triple to be the installed arena, its
// own graph, and exactly the oracle's edges that graph lacks, sorted —
// as many as Staleness reports.
func (o *edgeOracle) checkCapture(t *testing.T, st *Streaming) {
	t.Helper()
	th, g, pending := st.Capture()
	if th != st.Frozen() || g != th.g {
		t.Fatal("Capture returned a pair other than the installed arena and its graph")
	}
	var want [][2]graph.NodeID
	for e := range o.edges {
		if !g.HasEdge(e[0], e[1]) {
			want = append(want, e)
		}
	}
	slices.SortFunc(want, func(a, b [2]graph.NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	if !slices.Equal(pending, want) {
		t.Fatalf("Capture pending = %v, oracle %v", pending, want)
	}
	if got := st.Staleness(); got != int64(len(pending)) {
		t.Fatalf("Staleness() = %d, Capture found %d pending edges", got, len(pending))
	}
}

// TestCaptureAcrossUninstalledFold pins the pending set when a rebuild
// has folded the tail into a new base but not installed its arena
// (SnapshotGraph without Install, then more inserts): it is the live
// edge set minus the installed arena's graph, and restoring the triple
// reproduces both the live edges and the staleness.
func TestCaptureAcrossUninstalledFold(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 30
	g := randomGraph(r, n, 70)
	st := NewStreaming(g, TwoHopOptions{MaxHops: 3, Workers: 1})
	o := newEdgeOracle(g)
	insert := func(k int) {
		for i := 0; i < k; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if want := o.insert(u, v); insertOne(st, u, v) != want {
				t.Fatalf("insert(%d,%d) disagrees with the oracle", u, v)
			}
		}
	}
	insert(25)
	if base, _ := st.SnapshotGraph(); base == st.Frozen().g {
		t.Fatal("fold kept the arena's graph: no edge was new")
	}
	insert(25)
	o.checkCapture(t, st)

	th, g0, pending := st.Capture()
	re := NewStreamingFromFrozen(g0, th, TwoHopOptions{MaxHops: 3})
	if got := re.InsertEdges(pending); got != len(pending) {
		t.Fatalf("restore inserted %d of %d pending edges", got, len(pending))
	}
	if re.Staleness() != st.Staleness() {
		t.Fatalf("restored staleness %d, live %d", re.Staleness(), st.Staleness())
	}
	live, _ := re.SnapshotGraph()
	o.check(t, live)
}

// TestStreamingMatchesEdgeOracle drives seeded random interleavings of
// every mutating entry point against the oracle. Inserts draw from a
// small node range (with a margin either side) so duplicates against the
// base, against the tail and within one batch, self-loops and
// out-of-range endpoints all occur constantly.
func TestStreamingMatchesEdgeOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		const n = 24
		g := randomGraph(r, n, 60)
		st := NewStreaming(g, TwoHopOptions{MaxHops: 3, Workers: 1})
		o := newEdgeOracle(g)
		node := func() graph.NodeID { return graph.NodeID(r.Intn(n+4) - 2) }

		var applied, frozenAt int64
		lastSnap, lastSnapAt := g, int64(0)
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4:
				u, v := node(), node()
				want := o.insert(u, v)
				if got := insertOne(st, u, v); got != want {
					t.Fatalf("seed %d step %d: insert(%d,%d) = %v, oracle %v", seed, step, u, v, got, want)
				}
				if want {
					applied++
				}
			case op < 7:
				pairs := make([][2]graph.NodeID, r.Intn(8))
				want := 0
				for i := range pairs {
					pairs[i] = [2]graph.NodeID{node(), node()}
					if i > 0 && r.Intn(3) == 0 {
						pairs[i] = pairs[r.Intn(i)] // duplicate within the batch
					}
					if o.insert(pairs[i][0], pairs[i][1]) {
						want++
					}
				}
				if got := st.InsertEdges(pairs); got != want {
					t.Fatalf("seed %d step %d: InsertEdges(%v) = %d, oracle %d", seed, step, pairs, got, want)
				}
				applied += int64(want)
			case op < 9:
				snap, at := st.SnapshotGraph()
				if at != applied {
					t.Fatalf("seed %d step %d: snapshot stamped %d, want %d", seed, step, at, applied)
				}
				if (snap == lastSnap) != (at == lastSnapAt) {
					t.Fatalf("seed %d step %d: snapshot pointer reuse = %v with %d new edges",
						seed, step, snap == lastSnap, at-lastSnapAt)
				}
				o.check(t, snap)
				lastSnap, lastSnapAt = snap, at
			default:
				th, at := st.Rebuild()
				st.Install(th, at)
				frozenAt = at
				lastSnap, lastSnapAt = th.g, at
				o.check(t, th.g)
			}
			if got := st.Applied(); got != applied {
				t.Fatalf("seed %d step %d: Applied() = %d, want %d", seed, step, got, applied)
			}
			o.checkCapture(t, st)
			if got := st.Staleness(); got != applied-frozenAt {
				t.Fatalf("seed %d step %d: Staleness() = %d, want %d", seed, step, got, applied-frozenAt)
			}
		}
	}
}

// TestStreamingRejectsBadEndpoints: a self-loop or an endpoint outside
// [0, n) is refused at insert — synchronously, uncounted — and so can
// never reach graph.Builder.AddEdge (which panics on one) in a rebuild.
func TestStreamingRejectsBadEndpoints(t *testing.T) {
	g := diamond() // 6 nodes
	st := NewStreaming(g, TwoHopOptions{MaxHops: 3})
	bad := [][2]graph.NodeID{{2, 2}, {-1, 0}, {0, -1}, {6, 0}, {0, 6}, {1 << 30, -(1 << 30)}}
	for _, p := range bad {
		if insertOne(st, p[0], p[1]) {
			t.Fatalf("insert(%d,%d) accepted", p[0], p[1])
		}
	}
	if n := st.InsertEdges(append(bad, [2]graph.NodeID{3, 0})); n != 1 {
		t.Fatalf("InsertEdges counted %d new edges, want 1", n)
	}
	if got := st.Applied(); got != 1 {
		t.Fatalf("Applied() = %d, want 1", got)
	}
	th, at := st.Rebuild() // must not panic
	st.Install(th, at)
	if th.g.NumEdges() != g.NumEdges()+1 || !th.g.HasEdge(3, 0) {
		t.Fatalf("rebuilt graph has %d edges, want %d incl. 3→0", th.g.NumEdges(), g.NumEdges()+1)
	}
}

// TestStreamingSizeBytesCountsWhatIsHeld: arena + base CSR at rest, and
// strictly more with a tail pending.
func TestStreamingSizeBytesCountsWhatIsHeld(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 50, 200)
	st := NewStreaming(g, TwoHopOptions{MaxHops: 3})
	rest := st.SizeBytes()
	if want := st.Frozen().SizeBytes() + g.SizeBytes(); rest != want {
		t.Fatalf("SizeBytes at rest = %d, want arena + graph = %d", rest, want)
	}
	for v := graph.NodeID(1); v < 50; v++ {
		insertOne(st, 0, v)
	}
	if st.Applied() == 0 || st.SizeBytes() <= rest {
		t.Fatalf("SizeBytes with %d tail edges = %d, at rest %d", st.Applied(), st.SizeBytes(), rest)
	}
}

// naiveMismatch compares every pair the serving arena answers with a
// naive BFS over the live graph: reachability and distance exactly,
// followees as a subset of the oracle's that is non-empty when d ≥ 1.
func naiveMismatch(st *Streaming, h int) error {
	g, _ := st.SnapshotGraph()
	oracle := NewNaive(g, h)
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			nu, nv := graph.NodeID(u), graph.NodeID(v)
			want, wok := oracle.Query(nu, nv)
			got, gok := st.Query(nu, nv)
			if gok != wok || got.Dist != want.Dist || !subset(got.Followees, want.Followees) ||
				(got.Dist > 0 && len(got.Followees) == 0) {
				return fmt.Errorf("(%d,%d): arena %+v ok=%v, naive %+v ok=%v", u, v, got, gok, want, wok)
			}
		}
	}
	return nil
}

// TestStreamingRebuildAbsorbsFollows walks the follow cases through the
// live path — insert into the tail, Rebuild, Install — and checks each
// against a hand-derived answer and a naive BFS over the final edge set.
// Until the install, the serving arena answers exactly as before.
func TestStreamingRebuildAbsorbsFollows(t *testing.T) {
	type edges = [][2]graph.NodeID
	for _, c := range []struct {
		name         string
		n, h         int
		base, insert edges
		applied      int
		u, v         graph.NodeID
		ok           bool
		dist         int
		fol          []graph.NodeID
		r            float64
	}{
		// 0→1, 2→3: inserting 1→2 connects the chains.
		{"bridge", 4, 4, edges{{0, 1}, {2, 3}}, edges{{1, 2}}, 1, 0, 3, true, 3, []graph.NodeID{1}, 1.0 / 3},
		// 0→1→2→3: inserting 1→3 cuts d(0,3) from 3 to 2.
		{"shorter-path", 4, 4, edges{{0, 1}, {1, 2}, {2, 3}}, edges{{1, 3}}, 1, 0, 3, true, 2, []graph.NodeID{1}, 0.5},
		// 0→1→3: 0→2→3 is a second 2-hop path, so F_{0,3} = {1, 2}.
		{"equal-path-merge", 4, 4, edges{{0, 1}, {1, 3}}, edges{{0, 2}, {2, 3}}, 2, 0, 3, true, 2, []graph.NodeID{1, 2}, 0.5},
		// R(0,2) = (1/2)·(|F_02|/|F_0|): following a stranger halves it.
		{"rescale", 4, 4, edges{{0, 1}, {1, 2}}, edges{{0, 3}}, 1, 0, 2, true, 2, []graph.NodeID{1}, 0.25},
		// At H = 2 a bridge that only makes a 3-hop path changes nothing.
		{"hop-bound", 4, 2, edges{{0, 1}, {2, 3}}, edges{{1, 2}}, 1, 0, 3, false, 0, nil, 0},
		// A duplicate and a self-loop are not new follows.
		{"duplicate-and-self-loop", 3, 4, edges{{0, 1}, {1, 2}}, edges{{0, 1}, {1, 1}}, 0, 0, 2, true, 2, []graph.NodeID{1}, 0.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := graph.NewBuilder(c.n)
			for _, e := range c.base {
				b.AddEdge(e[0], e[1])
			}
			st := NewStreaming(b.Build(), TwoHopOptions{MaxHops: c.h})
			before := st.R(c.u, c.v)
			if n := st.InsertEdges(c.insert); n != c.applied {
				t.Fatalf("InsertEdges(%v) = %d new edges, want %d", c.insert, n, c.applied)
			}
			if r := st.R(c.u, c.v); r != before {
				t.Fatalf("R(%d,%d) moved %v → %v before the install", c.u, c.v, before, r)
			}
			th, at := st.Rebuild()
			st.Install(th, at)

			res, ok := st.Query(c.u, c.v)
			if ok != c.ok || res.Dist != c.dist || !sameSet(res.Followees, c.fol) {
				t.Fatalf("Query(%d,%d) = %+v ok=%v, want dist %d F %v ok=%v", c.u, c.v, res, ok, c.dist, c.fol, c.ok)
			}
			if r := st.R(c.u, c.v); math.Abs(r-c.r) > 1e-12 {
				t.Fatalf("R(%d,%d) = %v, want %v", c.u, c.v, r, c.r)
			}
			if err := naiveMismatch(st, c.h); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickStreamingMatchesRebuild: after any random run of follow
// inserts and one rebuild, the serving arena answers like a naive BFS
// over the final edge set — the maintenance invariant of the live path.
func TestQuickStreamingMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		h := 1 + r.Intn(4)
		st := NewStreaming(randomGraph(r, n, n), TwoHopOptions{MaxHops: h})
		for k := 0; k < 12; k++ {
			insertOne(st, graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
		}
		th, at := st.Rebuild()
		st.Install(th, at)
		if err := naiveMismatch(st, h); err != nil {
			t.Logf("seed %d (n=%d, H=%d): %v", seed, n, h, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
