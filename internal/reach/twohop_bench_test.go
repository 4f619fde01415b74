package reach

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"microlink/internal/graph"
)

// benchGraph is the shared benchmark fixture: large enough that label
// construction dominates setup, small enough for -bench runs in CI.
func benchGraph() *graph.Graph {
	r := rand.New(rand.NewSource(4242))
	return randomGraph(r, 2000, 16000)
}

func BenchmarkBuildTwoHop(b *testing.B) {
	g := benchGraph()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 1, BatchSize: 1})
			b.ReportMetric(float64(th.SizeBytes()), "index-bytes")
		}
	})
	// Batch size is the merge-granularity knob: small batches merge (and
	// fence) often against small deltas, large batches amortize the epoch
	// but weaken in-batch pruning. Sweeping it keeps granularity
	// regressions visible in plain `go test -bench`.
	for _, batch := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("parallel/batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, Workers: 4, BatchSize: batch})
				b.ReportMetric(float64(th.SizeBytes()), "index-bytes")
			}
		})
	}
}

// BenchmarkTwoHopQuery measures the frozen query hot path. Steady state
// must report 0 allocs/op: R runs entirely on pooled scratch and
// QueryAppend reuses the caller's buffer.
func BenchmarkTwoHopQuery(b *testing.B) {
	g := benchGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	r := rand.New(rand.NewSource(99))
	pairs := make([][2]graph.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{
			graph.NodeID(r.Intn(g.NumNodes())),
			graph.NodeID(r.Intn(g.NumNodes())),
		}
	}
	b.Run("R", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			p := pairs[i&1023]
			sink += th.R(p[0], p[1])
		}
		_ = sink
	})
	// One author against the ≈ 14 averaged users of a cache-missing
	// mention (Eq. 8 over a few candidates): the linker's RFrom shape.
	targets := make([]graph.NodeID, 14*64)
	for i := range targets {
		targets[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	b.Run("RFrom/targets=14", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float64, 14)
		for i := 0; i < b.N; i++ {
			k := i & 63
			th.RFrom(pairs[i&1023][0], targets[14*k:14*k+14], out)
		}
	})
	b.Run("QueryAppend", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]graph.NodeID, 0, 512)
		for i := 0; i < b.N; i++ {
			p := pairs[i&1023]
			res, _ := th.QueryAppend(p[0], p[1], buf[:0])
			_ = res
		}
	})
}

// readSink keeps BenchmarkReadTwoHop's result alive.
var readSink *TwoHop

// BenchmarkReadTwoHop is the warm restart's arena read: a benchGraph()
// cover reloaded from a file. MB/s is image bytes read per second;
// bytes/op is about the arena's own size, the image never being held
// whole.
func BenchmarkReadTwoHop(b *testing.B) {
	g := benchGraph()
	path := filepath.Join(b.TempDir(), "reach.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	size, err := BuildTwoHop(g, TwoHopOptions{MaxHops: 4}).WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		readSink, err = ReadTwoHop(f, g)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
