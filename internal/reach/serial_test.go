package reach

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"microlink/internal/checksum"
	"microlink/internal/graph"
)

func roundTripGraph() *graph.Graph {
	r := rand.New(rand.NewSource(21))
	return randomGraph(r, 120, 900)
}

func TestTwoHopRoundTrip(t *testing.T) {
	g := roundTripGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	var buf bytes.Buffer
	n, err := th.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTwoHop(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArenas(t, th, got)
	if arenaDigest(got) != arenaDigest(th) {
		t.Fatal("re-read arena digest differs from the built arena's")
	}
	if !slicesEq(th.order, got.order) || !slicesEq(th.rank, got.rank) || got.h != th.h {
		t.Fatal("landmark order, ranks or hop bound differ")
	}
	wantOut, wantIn := th.LabelCounts()
	if gotOut, gotIn := got.LabelCounts(); gotOut != wantOut || gotIn != wantIn {
		t.Fatalf("LabelCounts (%d, %d), want (%d, %d)", gotOut, gotIn, wantOut, wantIn)
	}
	if got.SizeBytes() != th.SizeBytes() {
		t.Fatalf("SizeBytes %d, want %d", got.SizeBytes(), th.SizeBytes())
	}
	if got.BuildStats().Entries != th.BuildStats().Entries {
		t.Fatalf("Entries %d, want %d", got.BuildStats().Entries, th.BuildStats().Entries)
	}
	wantInfo, gotInfo := th.BuildInfo(), got.BuildInfo()
	if gotInfo.FolPool != wantInfo.FolPool || gotInfo.FolRefs != wantInfo.FolRefs || gotInfo.Partitions != wantInfo.Partitions {
		t.Fatalf("BuildInfo pool/refs/partitions %d/%d/%d, want %d/%d/%d",
			gotInfo.FolPool, gotInfo.FolRefs, gotInfo.Partitions, wantInfo.FolPool, wantInfo.FolRefs, wantInfo.Partitions)
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			ra, oka := th.Query(graph.NodeID(u), graph.NodeID(v))
			rb, okb := got.Query(graph.NodeID(u), graph.NodeID(v))
			if oka != okb {
				t.Fatalf("Query(%d,%d): ok %v != %v", u, v, oka, okb)
			}
			if !oka {
				continue
			}
			if ra.Dist != rb.Dist || !sameSet(ra.Followees, rb.Followees) {
				t.Fatalf("Query(%d,%d): %+v != %+v", u, v, ra, rb)
			}
		}
	}
}

func TestLoadAgainstWrongGraph(t *testing.T) {
	g := roundTripGraph()
	data := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4}))
	other := randomGraph(rand.New(rand.NewSource(99)), 120, 900)
	if _, err := ReadTwoHop(bytes.NewReader(data), other); !errors.Is(err, ErrGraphMismatch) {
		t.Fatalf("err = %v, want graph mismatch", err)
	}
}

// TestLoadWrongKind: an image of any kind but the 2-hop cover's — kind 1
// was the transitive closure, which is no longer persisted — is an
// ErrFormat, not a cover.
func TestLoadWrongKind(t *testing.T) {
	g := roundTripGraph()
	data := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4}))
	data[6] = 1
	if _, err := ReadTwoHop(bytes.NewReader(data), g); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "kind 1") {
		t.Fatalf("err = %v, want a kind-1 format error", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	g := roundTripGraph()
	cases := [][]byte{
		nil,
		[]byte("garbage"),
		[]byte("MLRI"),
		[]byte("MLRI\x02\x00\x02\x04"),
	}
	for i, c := range cases {
		if _, err := ReadTwoHop(bytes.NewReader(c), g); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLoadCorruptedPayload(t *testing.T) {
	g := roundTripGraph()
	data := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4}))
	// Flip a byte in the middle of the payload.
	data[len(data)/2] ^= 0xFF
	if _, err := ReadTwoHop(bytes.NewReader(data), g); err == nil {
		t.Fatal("corrupted payload must not load")
	}
}

func TestLoadTruncated(t *testing.T) {
	g := roundTripGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	var buf bytes.Buffer
	if _, err := th.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadTwoHop(bytes.NewReader(data), g); err == nil {
		t.Fatal("truncated file must not load")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	g := roundTripGraph()
	if Fingerprint(g) != Fingerprint(g) {
		t.Fatal("fingerprint not deterministic")
	}
	other := randomGraph(rand.New(rand.NewSource(22)), 120, 900)
	if Fingerprint(g) == Fingerprint(other) {
		t.Fatal("fingerprint collision between different graphs")
	}
}

// reseal recomputes an image's payload checksum after a deliberate edit,
// so the reader gets past the checksum to the checks behind it.
func reseal(b []byte) {
	if len(b) < headerLen+trailerLen {
		return
	}
	le.PutUint64(b[len(b)-trailerLen:], checksum.Of(b[headerLen:len(b)-trailerLen]))
}

func TestTwoHopReadFromFile(t *testing.T) {
	g := roundTripGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	path := filepath.Join(t.TempDir(), "reach.bin")
	if err := os.WriteFile(path, serialize(t, th), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTwoHop(f, g)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArenas(t, th, got)
}

// TestTwoHopWidePool: a cover over more than 1<<16 nodes keeps its
// followee pool in 32-bit ids, in memory and in its image. The round-trip
// graph's edges are laid over ids that straddle 1<<16 in an otherwise
// edgeless graph, so the cover must answer every pair of them as the
// 120-node cover answers the pair they came from (R for every pair, the
// followee set for a ninth of them: a query's pooled scratch spans all
// n nodes), and must survive a round trip unchanged.
func TestTwoHopWidePool(t *testing.T) {
	small := roundTripGraph()
	k := small.NumNodes()
	const n = 1<<16 + 64
	base := graph.NodeID(n - k)
	b := graph.NewBuilder(n)
	for u := 0; u < k; u++ {
		for _, v := range small.Out(graph.NodeID(u)) {
			b.AddEdge(base+graph.NodeID(u), base+v)
		}
	}
	g := b.Build()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	if th.pool32 == nil || th.pool16 != nil {
		t.Fatalf("%d-node cover holds a %d-id wide and %d-id narrow pool", n, len(th.pool32), len(th.pool16))
	}
	ref := BuildTwoHop(small, TwoHopOptions{MaxHops: 4})
	vs, wide := make([]graph.NodeID, k), make([]graph.NodeID, k)
	for v := range vs {
		vs[v], wide[v] = graph.NodeID(v), base+graph.NodeID(v)
	}
	want, got := make([]float64, k), make([]float64, k)
	for u := 0; u < k; u++ {
		ref.RFrom(graph.NodeID(u), vs, want)
		th.RFrom(base+graph.NodeID(u), wide, got)
		for v := range vs {
			if got[v] != want[v] {
				t.Fatalf("R(%d,%d) = %v, want %v", u, v, got[v], want[v])
			}
		}
	}
	for i := 0; i < k*k; i += 9 {
		u, v := graph.NodeID(i/k), graph.NodeID(i%k)
		want, wok := ref.Query(u, v)
		got, gok := th.Query(base+u, base+v)
		if wok != gok || want.Dist != got.Dist || len(want.Followees) != len(got.Followees) {
			t.Fatalf("Query(%d,%d): %+v %v, want %+v %v shifted by %d", u, v, got, gok, want, wok, base)
		}
		for j, f := range want.Followees {
			if got.Followees[j] != base+f {
				t.Fatalf("Query(%d,%d) followees %v, want %v shifted by %d", u, v, got.Followees, want.Followees, base)
			}
		}
	}
	loaded, err := ReadTwoHop(bytes.NewReader(serialize(t, th)), g)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArenas(t, th, loaded)
	if loaded.SizeBytes() != th.SizeBytes() {
		t.Fatalf("SizeBytes %d, want %d", loaded.SizeBytes(), th.SizeBytes())
	}
}

// TestTwoHopReadUnsized: a reader that reports no size (neither Len nor
// Stat) is read whole first, then decoded like any other.
func TestTwoHopReadUnsized(t *testing.T) {
	g := roundTripGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	got, err := ReadTwoHop(iotest.OneByteReader(bytes.NewReader(serialize(t, th))), g)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArenas(t, th, got)
}

// TestLoadTwoHopVersion1Rejected: every image version but the current
// one — 1 to 3 were earlier layouts — is an ErrFormat that names the
// version and says to re-snapshot, never a misread cover.
func TestLoadTwoHopVersion1Rejected(t *testing.T) {
	g := roundTripGraph()
	clean := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4}))
	for _, v := range []uint16{0, 1, 2, 3, 5, 0xFFFF} {
		data := bytes.Clone(clean)
		le.PutUint16(data[4:], v)
		_, err := ReadTwoHop(bytes.NewReader(data), g)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) ||
			!strings.Contains(err.Error(), "re-snapshot") {
			t.Errorf("version %d: err = %v, want a format error naming the version and the re-snapshot", v, err)
		}
	}
}

// twoHopImage locates the fields of a version-4 2-hop image.
type twoHopImage struct {
	n, nOut, nIn, sets, idLen             int
	setCount, setOff, poolLen, pool       int // byte offsets
	order, outOff, inOff                  int
	outHub, outDist, outSet, inHub, inSet int
}

func locateTwoHop(th *TwoHop) twoHopImage {
	n := len(th.order)
	m := twoHopImage{n: n, nOut: len(th.out.hub), nIn: len(th.in.hub), sets: len(th.setOff) - 1, idLen: 4}
	if narrowPool(n) {
		m.idLen = 2
	}
	m.setCount = headerLen + 4 + 8
	m.setOff = m.setCount + 4
	m.poolLen = m.setOff + 4*(m.sets+1)
	m.pool = m.poolLen + 4
	m.order = m.pool + m.idLen*th.poolLen()
	m.outOff = m.order + 4*n
	m.inOff = m.outOff + 4*(n+1)
	m.outHub = m.inOff + 4*(n+1)
	m.outDist = m.outHub + 4*m.nOut
	m.outSet = m.outDist + m.nOut
	m.inHub = m.outSet + 4*m.nOut
	m.inSet = m.inHub + 5*m.nIn
	return m
}

// TestLoadTwoHopStructuralDamage edits one field of a valid image at a
// time and re-seals the checksum: every invariant the query path indexes
// by must be caught as a typed error, counts included (0xFFFFFFFF in a
// count field once killed the process with a fatal out-of-memory). The
// error must come from the structural check itself: a case that fails
// only on the checksum has not reached the check it names.
func TestLoadTwoHopStructuralDamage(t *testing.T) {
	g := roundTripGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	clean := serialize(t, th)
	m := locateTwoHop(th)
	if got := m.inSet + 4*m.nIn + trailerLen; got != len(clean) {
		t.Fatalf("located image is %d bytes, WriteTo wrote %d", got, len(clean))
	}

	// A node with two or more out-labels, a followee set of two or more
	// ids, and the pool's length.
	multi, wide, pool := -1, -1, th.poolLen()
	// The last out-label of the first node that has one: its hub is the
	// node's largest, so raising it to n breaks no ascent.
	lastHub := -1
	for u := 0; u < m.n && lastHub < 0; u++ {
		if th.out.off[u+1] > th.out.off[u] {
			lastHub = int(th.out.off[u+1]) - 1
		}
	}
	for u := 0; u < m.n && multi < 0; u++ {
		if th.out.off[u+1]-th.out.off[u] >= 2 {
			multi = int(th.out.off[u])
		}
	}
	for s := 0; s < m.sets && wide < 0; s++ {
		if th.setOff[s+1]-th.setOff[s] >= 2 {
			wide = s
		}
	}
	if multi < 0 || lastHub < 0 || wide < 1 || m.sets < 3 {
		t.Fatal("round-trip graph too sparse for the damage cases")
	}
	hub := func(i int) int { return m.outHub + 4*i }
	setEntry := func(k int) int { return m.setOff + 4*k }
	u32 := func(off int, v uint32) func([]byte) { return func(b []byte) { le.PutUint32(b[off:], v) } }
	if m.idLen != 2 {
		t.Fatal("round-trip graph's image should hold 16-bit pool ids")
	}
	poolID := func(k int, v uint16) func([]byte) { return func(b []byte) { le.PutUint16(b[m.pool+2*k:], v) } }

	// Each case names the check it must reach by a piece of its message.
	cases := []struct {
		name  string
		edit  func([]byte)
		want  error
		check string
	}{
		{"node count", u32(headerLen, uint32(m.n+1)), ErrGraphMismatch, "does not match"},
		{"order repeats a node", func(b []byte) { copy(b[m.order+4:], b[m.order:m.order+4]) }, ErrFormat, "not a permutation"},
		{"order out of range", u32(m.order, uint32(m.n)), ErrFormat, "not a permutation"},
		{"offsets start past 0", u32(m.outOff, 1), ErrFormat, "out-label offsets: entry 0 is 1"},
		{"offset decreases", u32(m.outOff+4, uint32(m.nOut)), ErrFormat, "out-label offsets: entry 2 decreases"},
		{"out-label count 0xFFFFFFFF", u32(m.outOff+4*m.n, 0xFFFFFFFF), ErrFormat, "decreases"},
		{"in-label count past the payload", u32(m.inOff+4*m.n, 0x7FFFFFFF), ErrFormat, "count 2147483647 of 4-byte elements"},
		{"set count 0xFFFFFFFF", u32(m.setCount, 0xFFFFFFFF), ErrFormat, "count 4294967296 of 4-byte elements"},
		{"pool count 0xFFFFFFFF", u32(m.poolLen, 0xFFFFFFFF), ErrFormat, "the pool holds 4294967295 ids"},
		{"hub out of range", u32(hub(lastHub), uint32(m.n)), ErrFormat, fmt.Sprintf("id %d out of range", m.n)},
		{"hubs not ascending", func(b []byte) { copy(b[hub(multi+1):], b[hub(multi):hub(multi)+4]) }, ErrFormat, "not strictly ascending"},
		{"set table not starting at 0", u32(setEntry(0), 1), ErrFormat, "set table: entry 0 is 1"},
		{"set 0 not empty", u32(setEntry(1), uint32(th.setOff[2])), ErrFormat, "set 0 is not the empty set"},
		{"no sets", u32(m.setCount, 0), ErrFormat, "set 0 is not the empty set"},
		{"set table decreasing", u32(setEntry(wide), uint32(th.setOff[wide+1]+1)), ErrFormat, "set table: entry"},
		{"set table not ending at the pool length", u32(setEntry(m.sets), uint32(pool-1)), ErrFormat, "set table ends at"},
		{"followee run past the pool", u32(setEntry(m.sets), 0x7FFFFFFF), ErrFormat, "set table ends at 2147483647"},
		{"followee run one past the pool", u32(setEntry(m.sets), uint32(pool+1)), ErrFormat, fmt.Sprintf("set table ends at %d", pool+1)},
		{"followee run at a negative offset", u32(setEntry(wide), 0xFFFFFFFF), ErrFormat, "decreases"},
		{"set id past the set count", u32(m.outSet, uint32(m.sets)), ErrFormat, fmt.Sprintf("out-label 0 names set %d of %d", m.sets, m.sets)},
		{"in-label set id 0xFFFFFFFF", u32(m.inSet+4*(m.nIn-1), 0xFFFFFFFF), ErrFormat, "names set 4294967295"},
		// The last pooled id: above every other, it breaks no set's ascent.
		{"pooled id out of range", poolID(pool-1, uint16(m.n)), ErrFormat, fmt.Sprintf("followee set %d: id %d out of range", m.sets-1, m.n)},
		{"followee run not ascending", func(b []byte) {
			at := m.pool + 2*int(th.setOff[wide])
			copy(b[at+2:], b[at:at+2])
		}, ErrFormat, fmt.Sprintf("followee set %d: id", wide)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := bytes.Clone(clean)
			c.edit(data)
			if bytes.Equal(data, clean) {
				t.Fatal("edit changed nothing")
			}
			reseal(data)
			requireStructural(t, data, g, c.want, c.check)
		})
	}

	t.Run("trailing payload bytes", func(t *testing.T) {
		data := append(bytes.Clone(clean[:len(clean)-trailerLen]), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		reseal(data)
		requireStructural(t, data, g, ErrFormat, "trailing payload bytes")
	})
	t.Run("count without reseal", func(t *testing.T) {
		data := bytes.Clone(clean)
		le.PutUint32(data[m.poolLen:], 0xFFFFFFFF)
		_, err := ReadTwoHop(bytes.NewReader(data), g)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("err = %v, want a checksum mismatch", err)
		}
	})
}

// requireStructural asserts a resealed image fails with want from the
// structural check whose message contains check, not on the checksum.
func requireStructural(t *testing.T, data []byte, g *graph.Graph, want error, check string) {
	t.Helper()
	_, err := ReadTwoHop(bytes.NewReader(data), g)
	if !errors.Is(err, want) || !strings.Contains(err.Error(), check) {
		t.Fatalf("err = %v, want %v from the %q check", err, want, check)
	}
}

// FuzzReadTwoHop feeds mutated 2-hop images to ReadTwoHop with the
// checksum re-sealed, so mutations reach the structural checks rather
// than stopping at the CRC. Every input must load or fail with a typed
// error, never panic or hang; an arena that loads must answer queries
// without panicking.
func FuzzReadTwoHop(f *testing.F) {
	g := randomGraph(rand.New(rand.NewSource(5)), 40, 160)
	for _, opts := range []TwoHopOptions{
		{MaxHops: 3, BatchSize: 1},
		{MaxHops: 4, BatchSize: 8},
	} {
		var buf bytes.Buffer
		if _, err := BuildTwoHop(g, opts).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		reseal(data)
		th, err := ReadTwoHop(bytes.NewReader(data), g)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrGraphMismatch) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		n := g.NumNodes()
		for i := 0; i < 64; i++ {
			u, v := graph.NodeID(i*7%n), graph.NodeID(i*13%n)
			th.R(u, v)
			th.Query(u, v)
		}
	})
}
