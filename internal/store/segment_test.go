package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microlink/internal/checksum"
	"microlink/internal/graph"
	"microlink/internal/kb"
	"microlink/internal/tweets"
)

// reseal overwrites width bytes at payload offset off of the segment at
// path with v, then recomputes the checksum trailer: the damage a
// checksum cannot catch, as a decoder sees it.
func reseal(t *testing.T, path string, off, width int, v uint64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := b[segHeaderSize+off:]
	switch width {
	case 4:
		binary.LittleEndian.PutUint32(p, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(p, v)
	default:
		t.Fatalf("width %d", width)
	}
	sealSegment(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sealSegment rewrites the checksum trailer of a framed segment image.
func sealSegment(b []byte) {
	payload := b[segHeaderSize : len(b)-segTrailerSize]
	binary.LittleEndian.PutUint64(b[len(b)-segTrailerSize:], checksum.Of(payload))
}

// TestSegmentCorruptCount damages one count field per segment kind and
// reseals the checksum. Each must load as ErrSegment from the decoder's
// own check, not the checksum; sized by the unverified count, the tweets
// and ckb allocations used to exhaust memory instead. The tweets totals
// are damaged both ways: too large for the body, and too small for the
// tweets the body holds.
func TestSegmentCorruptCount(t *testing.T) {
	cases := []struct {
		name       string
		seg        string
		off, width int
		v          uint64
		load       func(*Store) error
	}{
		{"graph nodes", segGraphName, 0, 4, math.MaxUint32, func(s *Store) error { _, err := s.LoadGraph(); return err }},
		{"graph edges", segGraphName, 4, 8, 1<<40 - 1, func(s *Store) error { _, err := s.LoadGraph(); return err }},
		{"pending edges", segPendingName, 0, 8, 1<<40 - 1, func(s *Store) error { _, err := s.LoadPending(); return err }},
		{"ckb entities", segCKBName, 0, 4, 1<<24 - 1, func(s *Store) error { _, err := s.LoadPostings(); return err }},
		{"ckb entity 0 postings", segCKBName, 4, 4, 1<<31 - 1, func(s *Store) error { _, err := s.LoadPostings(); return err }},
		{"tweets count", segTweetsName, 0, 4, 1<<28 - 1, func(s *Store) error { _, err := s.LoadTweets(); return err }},
		{"tweets mention total", segTweetsName, 4, 4, 1<<31 - 1, func(s *Store) error { _, err := s.LoadTweets(); return err }},
		{"tweets mention total short", segTweetsName, 4, 4, 3, func(s *Store) error { _, err := s.LoadTweets(); return err }},
		{"tweets string bytes", segTweetsName, 8, 8, 1<<40 - 1, func(s *Store) error { _, err := s.LoadTweets(); return err }},
		{"tweets string bytes short", segTweetsName, 8, 8, 1, func(s *Store) error { _, err := s.LoadTweets(); return err }},
		{"tweets body bytes", segTweetsName, 16, 8, 1<<36 - 1, func(s *Store) error { _, err := s.LoadTweets(); return err }},
		{"world params bytes", segWorldName, 0, 4, 1<<31 - 1, func(s *Store) error { _, err := s.LoadWorld(); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			if err := s.Rotate(); err != nil {
				t.Fatal(err)
			}
			commitSample(t, s)
			reseal(t, segmentPath(t, s, c.seg), c.off, c.width, c.v)
			if err := c.load(s); !errors.Is(err, ErrSegment) || strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("load after resealed count damage: got %v, want ErrSegment from the decoder", err)
			}
		})
	}
}

// TestPendingSegmentValidation: a pending segment must list distinct
// edges in ascending (u, v) order between non-negative node ids.
func TestPendingSegmentValidation(t *testing.T) {
	for name, pending := range map[string][][2]graph.NodeID{
		"descending": {{3, 4}, {0, 2}},
		"duplicate":  {{3, 4}, {3, 4}},
		"negative":   {{-1, 4}},
	} {
		var buf bytes.Buffer
		if err := writePendingPayload(&buf, pending); err != nil {
			t.Fatal(err)
		}
		err := decodeSegment(frameSegment(segKindPending, buf.Bytes()), segKindPending, func(d *decoder) error {
			_, err := readPendingPayload(d)
			return err
		})
		if !errors.Is(err, ErrSegment) {
			t.Errorf("%s: got %v, want ErrSegment", name, err)
		}
	}
}

// TestLoadPendingWithoutManifestEntry: every manifest names its pending
// segment; one without the entry is damaged, not a directory from before
// the segment existed (those are version 1, refused outright).
func TestLoadPendingWithoutManifestEntry(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	delete(man.Segments, segPendingName)
	if b, err = json.Marshal(&man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("Open without a pending entry: got %v, want ErrManifest", err)
	}
}

// frameSegment wraps payload in a sealed segment image of kind.
func frameSegment(kind uint8, payload []byte) []byte {
	b := append([]byte(segMagic), 0, 0, kind)
	binary.LittleEndian.PutUint16(b[4:6], segVersion)
	b = append(b, payload...)
	b = append(b, make([]byte, segTrailerSize)...)
	sealSegment(b)
	return b
}

// segmentCodec is one payload kind's encoder and decoder, for the fuzzer.
type segmentCodec struct {
	kind   uint8
	decode func(d *decoder) (any, error)
	encode func(w io.Writer, v any) error // nil: the decoder does not round-trip exactly
}

var segmentCodecs = []segmentCodec{
	{segKindGraph, func(d *decoder) (any, error) { return readGraphPayload(d) }, nil},
	{segKindCKB,
		func(d *decoder) (any, error) { return readPostingsPayload(d) },
		func(w io.Writer, v any) error { return writePostingsPayload(w, v.([][]kb.Posting)) }},
	{segKindTweets,
		func(d *decoder) (any, error) { return readTweetsPayload(d) },
		func(w io.Writer, v any) error { return writeTweetsPayload(w, v.([]tweets.Tweet)) }},
	{segKindPending,
		func(d *decoder) (any, error) { return readPendingPayload(d) },
		func(w io.Writer, v any) error { return writePendingPayload(w, v.([][2]graph.NodeID)) }},
	{segKindWorld, func(d *decoder) (any, error) { return readWorldPayload(d) }, nil},
}

// FuzzReadSegment feeds arbitrary payloads, framed and checksum-sealed
// so they reach the decoders, to every segment kind. Each input must
// decode to a value or fail with ErrSegment — no panic, no hang, no
// allocation beyond what the payload's bytes can justify — and a decoded
// ckb, tweets or pending payload must re-encode to the same bytes.
func FuzzReadSegment(f *testing.F) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	seed := func(kind uint8, write func(io.Writer) error) {
		buf.Reset()
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(kind, bytes.Clone(buf.Bytes()))
	}
	seed(segKindGraph, func(w io.Writer) error { return writeGraphPayload(w, snap.Graph) })
	seed(segKindCKB, func(w io.Writer) error { return writePostingsPayload(w, snap.Postings) })
	seed(segKindTweets, func(w io.Writer) error { return writeTweetsPayload(w, snap.Tweets) })
	seed(segKindPending, func(w io.Writer) error { return writePendingPayload(w, snap.Pending) })
	seed(segKindWorld, func(w io.Writer) error { return writeWorldPayload(w, snap.World) })
	f.Add(uint8(segKindTweets), []byte{})

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		// segmentCodecs is in kind order from 1, so a seed's kind picks
		// its own decoder.
		c := segmentCodecs[(int(kind)+len(segmentCodecs)-1)%len(segmentCodecs)]
		var v any
		err := decodeSegment(frameSegment(c.kind, payload), c.kind, func(d *decoder) error {
			var err error
			v, err = c.decode(d)
			return err
		})
		if err != nil {
			if !errors.Is(err, ErrSegment) {
				t.Fatalf("kind %d: untyped error %v", c.kind, err)
			}
			return
		}
		if c.encode == nil {
			return
		}
		var out bytes.Buffer
		if err := c.encode(&out, v); err != nil {
			t.Fatalf("kind %d: re-encode: %v", c.kind, err)
		}
		if !bytes.Equal(out.Bytes(), payload) {
			t.Fatalf("kind %d: decoded payload re-encodes differently", c.kind)
		}
	})
}

// FuzzDecodeRecord feeds arbitrary WAL record payloads (already past the
// frame checksum, as replay hands them over) to decodeRecord. Each must
// decode or fail with ErrWALCorrupt, and a decoded record must re-encode
// to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		b, err := appendRecord(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(r.Kind), b)
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		r, err := decodeRecord(Kind(kind), payload)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("kind %d: untyped error %v", kind, err)
			}
			return
		}
		b, err := appendRecord(nil, &r)
		if err != nil {
			t.Fatalf("kind %d: re-encode: %v", kind, err)
		}
		if !bytes.Equal(b, payload) {
			t.Fatalf("kind %d: decoded record re-encodes differently", kind)
		}
	})
}
