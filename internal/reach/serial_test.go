package reach

import (
	"bytes"
	"errors"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// reseal recomputes an image's payload CRC after a deliberate edit, so
// the reader gets past the checksum to the checks behind it.
func reseal(b []byte) {
	if len(b) < headerLen+trailerLen {
		return
	}
	le.PutUint64(b[len(b)-trailerLen:], crc64.Checksum(b[headerLen:len(b)-trailerLen], crcTable))
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

func TestLoadTwoHopVersion1Rejected(t *testing.T) {
	g := roundTripGraph()
	data := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4}))
	le.PutUint16(data[4:], 1)
	_, err := ReadTwoHop(bytes.NewReader(data), g)
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("err = %v, want a version-1 format error", err)
	}
}

// twoHopImage locates the fields of a version-2 2-hop image.
type twoHopImage struct {
	n, nOut, nIn                        int
	order, outOff, inOff, outLab, inLab int // byte offsets
	poolLen, pool                       int
}

func locateTwoHop(th *TwoHop) twoHopImage {
	n := len(th.order)
	m := twoHopImage{n: n, nOut: len(th.outLab), nIn: len(th.inLab)}
	m.order = headerLen + 4
	m.outOff = m.order + 4*n
	m.inOff = m.outOff + 4*(n+1)
	m.outLab = m.inOff + 4*(n+1)
	m.inLab = m.outLab + labelLen*m.nOut
	m.poolLen = m.inLab + labelLen*m.nIn
	m.pool = m.poolLen + 4
	return m
}

// TestLoadTwoHopStructuralDamage edits one field of a valid image at a
// time and re-seals the checksum: every invariant the query path indexes
// by must be caught as a typed error, counts included (0xFFFFFFFF in a
// count field once killed the process with a fatal out-of-memory).
func TestLoadTwoHopStructuralDamage(t *testing.T) {
	g := roundTripGraph()
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	clean := serialize(t, th)
	m := locateTwoHop(th)

	// A node with two or more out-labels, and an out-label whose followee
	// run holds two or more ids.
	multi, wide := -1, -1
	for u := 0; u < m.n && multi < 0; u++ {
		if th.outOff[u+1]-th.outOff[u] >= 2 {
			multi = int(th.outOff[u])
		}
	}
	for i, l := range th.outLab {
		if l.folLen >= 2 {
			wide = i
			break
		}
	}
	if multi < 0 || wide < 0 {
		t.Fatal("round-trip graph too sparse for the damage cases")
	}
	label := func(i int) int { return m.outLab + labelLen*i }
	u32 := func(off int, v uint32) func([]byte) { return func(b []byte) { le.PutUint32(b[off:], v) } }

	cases := []struct {
		name string
		edit func([]byte)
		want error
	}{
		{"node count", u32(headerLen, uint32(m.n+1)), ErrGraphMismatch},
		{"order repeats a node", func(b []byte) { copy(b[m.order+4:], b[m.order:m.order+4]) }, ErrFormat},
		{"order out of range", u32(m.order, uint32(m.n)), ErrFormat},
		{"offsets start past 0", u32(m.outOff, 1), ErrFormat},
		{"offset decreases", u32(m.outOff+4, uint32(m.nOut)), ErrFormat},
		{"out-label count 0xFFFFFFFF", u32(m.outOff+4*m.n, 0xFFFFFFFF), ErrFormat},
		{"in-label count past the payload", u32(m.inOff+4*m.n, 0x7FFFFFFF), ErrFormat},
		{"pool count 0xFFFFFFFF", u32(m.poolLen, 0xFFFFFFFF), ErrFormat},
		{"hub out of range", u32(label(0), uint32(m.n)), ErrFormat},
		{"hubs not ascending", func(b []byte) { copy(b[label(multi+1):], b[label(multi):label(multi)+4]) }, ErrFormat},
		{"followee run past the pool", u32(label(wide)+4, uint32(len(th.folPool))), ErrFormat},
		{"followee run at a negative offset", u32(label(wide)+4, 0xFFFFFFFF), ErrFormat},
		{"pooled id out of range", u32(m.pool, uint32(m.n)), ErrFormat},
		{"followee run not ascending", func(b []byte) {
			at := m.pool + 4*int(th.outLab[wide].folOff)
			copy(b[at+4:], b[at:at+4])
		}, ErrFormat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := bytes.Clone(clean)
			c.edit(data)
			if bytes.Equal(data, clean) {
				t.Fatal("edit changed nothing")
			}
			reseal(data)
			_, err := ReadTwoHop(bytes.NewReader(data), g)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}

	t.Run("trailing payload bytes", func(t *testing.T) {
		data := append(bytes.Clone(clean[:len(clean)-trailerLen]), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		reseal(data)
		if _, err := ReadTwoHop(bytes.NewReader(data), g); !errors.Is(err, ErrFormat) {
			t.Fatalf("err = %v, want format error", err)
		}
	})
	t.Run("count without reseal", func(t *testing.T) {
		data := bytes.Clone(clean)
		le.PutUint32(data[m.poolLen:], 0xFFFFFFFF)
		if _, err := ReadTwoHop(bytes.NewReader(data), g); !errors.Is(err, ErrFormat) {
			t.Fatalf("err = %v, want format error", err)
		}
	})
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
