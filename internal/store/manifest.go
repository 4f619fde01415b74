package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"microlink/internal/synth"
)

const (
	manifestName = "MANIFEST"
	// manifestVersion 2 added the world segment. A version-1 directory
	// meant "regenerate the world from World" and is refused: it is
	// re-snapshotted from a cold Build, not decoded a second way.
	manifestVersion = 2
)

// Manifest is the commit record of one snapshot generation. It is the
// single mutable file in the layout, replaced atomically by rename, so a
// crash during Commit leaves either the old snapshot or the new one —
// never a half-written mix.
type Manifest struct {
	// Version is the layout format version (manifestVersion).
	Version int `json:"version"`
	// Seq is the snapshot generation, embedded in segment file names.
	Seq uint64 `json:"seq"`
	// CreatedUnix is the commit wall time, seconds since the epoch.
	CreatedUnix int64 `json:"created_unix"`
	// World is the parameters the world segment's dataset was generated
	// from: provenance, not regenerated. Open reads the world segment.
	World synth.Params `json:"world"`
	// Reach names the persisted index kind. ReachStreaming is the only
	// one: "twohop" and "closure" directories are refused.
	Reach string `json:"reach"`
	// MaxHops is the hop bound H the 2-hop arena was built with.
	MaxHops int `json:"max_hops,omitempty"`
	// Segments maps segment base names (world, graph, pending, ckb,
	// tweets, reach) to file names inside the data directory, each
	// segName(s, name) for some generation 1 ≤ s ≤ Seq. An entry may name
	// an earlier generation's file: a commit that leaves a payload nil
	// carries the previous manifest's entry forward (the world for the
	// whole binding, the graph and reach pair until a rebuild installs a
	// new arena).
	Segments map[string]string `json:"segments"`
	// WALSeq is the first WAL file extending this snapshot: replay
	// starts there and pruning deletes everything below it.
	WALSeq uint64 `json:"wal_seq"`
}

// readManifest loads and validates path. A missing file is (nil, nil) —
// an empty data directory, not an error.
func readManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrManifest, path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: %s: version %d, want %d", ErrManifest, path, m.Version, manifestVersion)
	}
	if m.Reach != ReachStreaming {
		return nil, fmt.Errorf("%w: %s: reach kind %q, want %q", ErrManifest, path, m.Reach, ReachStreaming)
	}
	if m.Seq == 0 || m.WALSeq == 0 {
		return nil, fmt.Errorf("%w: %s: zero sequence numbers", ErrManifest, path)
	}
	// A carried segment names an older generation's file, so an entry
	// may name any generation up to the manifest's own, but only a file
	// of its own kind: never a path, nor another kind's file.
	for _, name := range segNames {
		file, ok := m.Segments[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s: missing %s segment entry", ErrManifest, path, name)
		}
		if seq, ok := parseSegName(file, name); !ok || seq > m.Seq {
			return nil, fmt.Errorf("%w: %s: %s segment entry %q is not a %s file of generation 1..%d",
				ErrManifest, path, name, file, name, m.Seq)
		}
	}
	if len(m.Segments) != len(segNames) {
		return nil, fmt.Errorf("%w: %s: %d segment entries, want %d", ErrManifest, path, len(m.Segments), len(segNames))
	}
	return &m, nil
}

// writeManifest commits man atomically: write MANIFEST.tmp, sync it,
// rename over MANIFEST, sync the directory so the rename is durable.
// Failed commits remove the temp file so the next generation starts
// from a clean directory.
//
// microlint:durable
func writeManifest(dir string, man *Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSynced(tmp, append(b, '\n')); err != nil {
		return errors.Join(err, removeTemp(tmp))
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return errors.Join(err, removeTemp(tmp))
	}
	return syncDir(dir)
}

// removeTemp deletes a leftover temp file, tolerating its absence.
func removeTemp(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// writeFileSynced writes data to a fresh file and syncs it before close.
//
// microlint:durable
func writeFileSynced(path string, data []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir makes a just-renamed directory entry durable. Best-effort:
// platforms that refuse to open directories are tolerated.
//
// microlint:durable
func syncDir(dir string) (err error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer func() {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}()
	return d.Sync()
}
