package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadManifest writes arbitrary bytes as MANIFEST and reads them
// back. Each input must fail with ErrManifest or yield a manifest that
// passes validation — supported version and reach kind, nonzero
// sequence numbers, every segment named by a file of its own kind and a
// generation no newer than the manifest's — and that survives a
// write/read round trip unchanged. Never a panic. The seeds are a
// committed manifest; the same manifest naming each retired reach kind,
// "twohop" and "closure"; its reach entry replaced by a path, by a ckb
// file and by a file of a later generation; and a generation-2 manifest
// that carries the world, graph and reach files of generation 1.
func FuzzReadManifest(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Commit(sampleSnapshot()); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	for _, retired := range []string{"twohop", "closure"} {
		b := bytes.Replace(committed, []byte(`"reach": "streaming"`), []byte(`"reach": "`+retired+`"`), 1)
		if bytes.Equal(b, committed) {
			f.Fatal("committed manifest does not name the streaming reach kind")
		}
		f.Add(b)
	}
	for _, bad := range []string{"../x", segName(1, segCKBName), segName(2, segReachName)} {
		b := bytes.Replace(committed, []byte(`"`+segName(1, segReachName)+`"`), []byte(`"`+bad+`"`), 1)
		if bytes.Equal(b, committed) {
			f.Fatal("committed manifest does not name the generation-1 reach file")
		}
		f.Add(b)
	}
	carry := sampleSnapshot()
	carry.World, carry.Graph, carry.Index = nil, nil, nil
	if err := s.Rotate(); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Commit(carry); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	mixed, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)

	// One file, rewritten per input: a fuzz worker runs its inputs one at
	// a time, so no input reads another's bytes.
	path := filepath.Join(f.TempDir(), manifestName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(path)
		if err != nil {
			if !errors.Is(err, ErrManifest) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("existing MANIFEST read as absent")
		}
		if m.Version != manifestVersion || m.Reach != ReachStreaming || m.Seq == 0 || m.WALSeq == 0 {
			t.Fatalf("invalid manifest accepted: %+v", m)
		}
		for _, name := range segNames {
			if seq, ok := parseSegName(m.Segments[name], name); !ok || seq > m.Seq {
				t.Fatalf("generation-%d manifest naming %s segment %q accepted", m.Seq, name, m.Segments[name])
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := readManifest(path)
		if err != nil {
			t.Fatalf("re-read of an accepted manifest: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the manifest: %+v → %+v", m, again)
		}
	})
}
