// Package graph implements the directed followee–follower network that
// underlies weighted reachability (paper §3, §4.1). An edge (u, v) means
// "u follows v": v is one of u's followees, so interest flows along out
// edges. Graphs are built once with a Builder and then frozen into a
// compact CSR (compressed sparse row) form that the reachability indexes
// and the BFS routines read concurrently without locks.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a user in the followee–follower network. IDs are dense:
// a graph with n nodes uses IDs 0..n-1.
type NodeID = int32

// Builder accumulates edges before freezing them into a Graph. Builders are
// not safe for concurrent use.
type Builder struct {
	n     int
	edges [][2]NodeID
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the follow edge u → v (u subscribes to v). Self-loops are
// ignored: a user's interest in herself carries no linking signal. Adding an
// out-of-range endpoint panics, since that is a programming error in the
// generator or loader, not a data condition.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
}

// NumEdges reports the number of edges recorded so far (before dedup).
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build freezes the accumulated edges into an immutable Graph, sorting
// adjacency lists and removing duplicate edges.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	// Dedup in place.
	dst := 0
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		b.edges[dst] = e
		dst++
	}
	b.edges = b.edges[:dst]

	g := &Graph{
		n:          b.n,
		outOffsets: make([]int64, b.n+1),
		outTargets: make([]NodeID, dst),
		inOffsets:  make([]int64, b.n+1),
		inSources:  make([]NodeID, dst),
	}
	for _, e := range b.edges {
		g.outOffsets[e[0]+1]++
		g.inOffsets[e[1]+1]++
	}
	for i := 1; i <= b.n; i++ {
		g.outOffsets[i] += g.outOffsets[i-1]
		g.inOffsets[i] += g.inOffsets[i-1]
	}
	outNext := make([]int64, b.n)
	inNext := make([]int64, b.n)
	copy(outNext, g.outOffsets[:b.n])
	copy(inNext, g.inOffsets[:b.n])
	for _, e := range b.edges {
		g.outTargets[outNext[e[0]]] = e[1]
		outNext[e[0]]++
		g.inSources[inNext[e[1]]] = e[0]
		inNext[e[1]]++
	}
	// in-lists come out sorted by source because edges are sorted by source.
	return g
}

// Graph is a frozen directed graph in CSR form. All methods are safe for
// concurrent use.
type Graph struct {
	n          int
	outOffsets []int64
	outTargets []NodeID
	inOffsets  []int64
	inSources  []NodeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of (deduplicated) edges.
func (g *Graph) NumEdges() int { return len(g.outTargets) }

// Out returns u's followees (targets of out edges), sorted ascending. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Out(u NodeID) []NodeID {
	return g.outTargets[g.outOffsets[u]:g.outOffsets[u+1]]
}

// In returns u's followers (sources of in edges), sorted ascending. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) In(u NodeID) []NodeID {
	return g.inSources[g.inOffsets[u]:g.inOffsets[u+1]]
}

// OutDegree returns the number of users u follows.
//
// microlint:noalloc
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOffsets[u+1] - g.outOffsets[u])
}

// InDegree returns the number of followers of u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inOffsets[u+1] - g.inOffsets[u])
}

// Degree returns the total degree (in + out) of u, the ordering key used by
// the 2-hop cover's pruned landmark labeling (Algorithm 2, line 1).
func (g *Graph) Degree(u NodeID) int {
	return g.OutDegree(u) + g.InDegree(u)
}

// HasEdge reports whether the follow edge u → v exists, by binary search
// over u's sorted followee list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	out := g.Out(u)
	i := sort.Search(len(out), func(i int) bool { return out[i] >= v })
	return i < len(out) && out[i] == v
}

// SizeBytes returns the measured size of the CSR backing arrays.
func (g *Graph) SizeBytes() int64 {
	return int64(cap(g.outOffsets)+cap(g.inOffsets))*8 + int64(cap(g.outTargets)+cap(g.inSources))*4
}

// Stats summarises the structural numbers Table 5 reports per dataset.
type Stats struct {
	Nodes     int
	Edges     int
	AvgDegree float64 // average out-degree
	MaxDegree int     // maximum total degree
}

// Stats computes the Table 5 graph statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.n, Edges: g.NumEdges()}
	if g.n > 0 {
		s.AvgDegree = float64(g.NumEdges()) / float64(g.n)
	}
	for u := 0; u < g.n; u++ {
		if d := g.Degree(NodeID(u)); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}
