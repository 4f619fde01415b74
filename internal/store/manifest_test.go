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
// sequence numbers, every required segment named — and that survives a
// write/read round trip unchanged. Never a panic. The seeds are a
// committed manifest and the same manifest naming each retired reach
// kind, "twohop" and "closure".
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
		for _, name := range []string{segGraphName, segCKBName, segTweetsName, segReachName} {
			if m.Segments[name] == "" {
				t.Fatalf("manifest without a %s segment accepted", name)
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
