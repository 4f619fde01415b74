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
// one — 1 and 2 were earlier layouts — is an ErrFormat that names the
// version and says to re-snapshot, never a misread cover.
func TestLoadTwoHopVersion1Rejected(t *testing.T) {
	g := roundTripGraph()
	clean := serialize(t, BuildTwoHop(g, TwoHopOptions{MaxHops: 4}))
	for _, v := range []uint16{0, 1, 2, 4, 0xFFFF} {
		data := bytes.Clone(clean)
		le.PutUint16(data[4:], v)
		_, err := ReadTwoHop(bytes.NewReader(data), g)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) ||
			!strings.Contains(err.Error(), "re-snapshot") {
			t.Errorf("version %d: err = %v, want a format error naming the version and the re-snapshot", v, err)
		}
	}
}

// twoHopImage locates the fields of a version-3 2-hop image.
type twoHopImage struct {
	n, nOut, nIn                        int
	poolLen, pool                       int // byte offsets
	order, outOff, inOff, outLab, inLab int
}

func locateTwoHop(th *TwoHop) twoHopImage {
	n := len(th.order)
	m := twoHopImage{n: n, nOut: len(th.outLab), nIn: len(th.inLab)}
	m.poolLen = headerLen + 4
	m.pool = m.poolLen + 4
	m.order = m.pool + 4*len(th.folPool)
	m.outOff = m.order + 4*n
	m.inOff = m.outOff + 4*(n+1)
	m.outLab = m.inOff + 4*(n+1)
	m.inLab = m.outLab + labelLen*m.nOut
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
		{"offsets start past 0", u32(m.outOff, 1), ErrFormat, "offsets start at 1"},
		{"offset decreases", u32(m.outOff+4, uint32(m.nOut)), ErrFormat, "decreases"},
		{"out-label count 0xFFFFFFFF", u32(m.outOff+4*m.n, 0xFFFFFFFF), ErrFormat, "decreases"},
		{"in-label count past the payload", u32(m.inOff+4*m.n, 0x7FFFFFFF), ErrFormat, "count 2147483647 of 11-byte elements"},
		{"pool count 0xFFFFFFFF", u32(m.poolLen, 0xFFFFFFFF), ErrFormat, "count 4294967295 of 4-byte elements"},
		{"hub out of range", u32(label(0), uint32(m.n)), ErrFormat, "out of range or order"},
		{"hubs not ascending", func(b []byte) { copy(b[label(multi+1):], b[label(multi):label(multi)+4]) }, ErrFormat, "out of range or order"},
		{"followee run past the pool", u32(label(wide)+4, uint32(len(th.folPool))), ErrFormat, "outside a pool"},
		{"followee run one past the pool", u32(label(wide)+4, uint32(len(th.folPool)-int(th.outLab[wide].folLen)+1)), ErrFormat, "outside a pool"},
		{"followee run at a negative offset", u32(label(wide)+4, 0xFFFFFFFF), ErrFormat, "outside a pool"},
		// The last pooled id: above every other, it breaks no run's ascent.
		{"pooled id out of range", u32(m.order-4, uint32(m.n)), ErrFormat, "pooled followee"},
		{"followee run not ascending", func(b []byte) {
			at := m.pool + 4*int(th.outLab[wide].folOff)
			copy(b[at+4:], b[at:at+4])
		}, ErrFormat, "not strictly ascending"},
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

// TestDescentsAscendsMatchesScan checks the bitset run test against a
// direct scan of the pool, for runs of every length up to 150 at every
// offset: short runs inside one window, runs across a word boundary and
// runs longer than one window.
func TestDescentsAscendsMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		pool := make([]int32, 100+r.Intn(200))
		for i := range pool {
			switch {
			case i == 0:
			case r.Intn(60) == 0:
				pool[i] = pool[i-1] - int32(r.Intn(3)) // a descent, or a repeat
			default:
				pool[i] = pool[i-1] + 1 + int32(r.Intn(3))
			}
		}
		ds := make(descents, len(pool)>>6+2)
		for i := 1; i < len(pool); i++ {
			if pool[i] <= pool[i-1] {
				ds[i>>6] |= 1 << (i & 63)
			}
		}
		for off := 0; off <= len(pool); off++ {
			for n := 0; n <= 150 && off+n <= len(pool); n++ {
				want := true
				for i := off + 1; i < off+n; i++ {
					want = want && pool[i] > pool[i-1]
				}
				if got := ds.ascends(off, n); got != want {
					t.Fatalf("pool of %d: ascends(%d, %d) = %v, scan says %v", len(pool), off, n, got, want)
				}
			}
		}
	}
}
