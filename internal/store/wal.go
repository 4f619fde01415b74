package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"microlink/internal/checksum"
)

// WAL file format (little endian):
//
//	header: magic "MLWL" | version u16
//	record: kind u8 | payloadLen u32 | payload | checksum(kind…payload) u64
//
// The checksum (package checksum's CRC-32C/CRC-32 pair) covers the kind
// byte, the length field and the payload, so a flipped bit anywhere in
// the frame is detected. A version-1 file (CRC-64 frames) is refused
// with ErrWAL: re-snapshot from a cold Build. Records are
// appended with buffered writes flushed per batch: a crash can tear at
// most the final record, which replay truncates away; anything else that
// fails the checksum is ErrWALCorrupt.

const (
	walMagic   = "MLWL"
	walVersion = 2

	walHeaderSize    = 6                     // magic + version
	walFrameOverhead = 1 + 4 + checksum.Size // kind + length + checksum
	maxRecordPayload = 1 << 24               // sanity bound for decode-time allocation
)

// walName formats the file name of WAL sequence seq.
func walName(seq uint64) string { return fmt.Sprintf("wal-%06d.log", seq) }

// parseWALName extracts the sequence from a wal-<seq>.log name.
func parseWALName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// walWriter appends framed records to one WAL file. Not safe for
// concurrent use — the Store serialises access behind its mutex: the
// advisory lane (racecheck -advisory) proves bytes and records are
// consistently protected by Store.mu (level `store`) across every
// concurrent access, a cross-struct guard the same-struct guarded-by
// grammar cannot declare — see the inferred-lockset table in
// DESIGN.md §6.
type walWriter struct {
	f       *os.File
	bw      *bufio.Writer
	fsync   bool
	bytes   int64 // advisory-inferred guard: Store.mu
	records int64 // advisory-inferred guard: Store.mu
	scratch []byte
}

// walHeader is the header every WAL file starts with.
var walHeader = binary.LittleEndian.AppendUint16([]byte(walMagic), walVersion)

// createWAL creates path (which must not exist) and writes the header. A
// failed header write closes and removes the file; a crash before the
// write completes leaves a torn header, which replay repairs when the
// file is the newest.
//
// microlint:durable
func createWAL(path string, fsync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walHeader); err != nil {
		return nil, errors.Join(err, f.Close(), os.Remove(path))
	}
	return &walWriter{f: f, bw: bufio.NewWriter(f), fsync: fsync, bytes: walHeaderSize}, nil
}

// openWAL reopens path, a WAL file replay found holding only a valid
// header, for appends after it.
func openWAL(path string, fsync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, bw: bufio.NewWriter(f), fsync: fsync, bytes: walHeaderSize}, nil
}

// append frames and writes recs, then flushes to the OS (and syncs when
// configured). The whole batch is one flush: after append returns, every
// record in it survives process death.
//
// microlint:durable
func (w *walWriter) append(recs []Record) error {
	for i := range recs {
		frame, err := appendWALFrame(w.scratch[:0], &recs[i])
		if err != nil {
			return err
		}
		w.scratch = frame[:0]
		if _, err := w.bw.Write(frame); err != nil {
			return err
		}
		w.bytes += int64(len(frame))
		w.records++
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.fsync {
		return w.f.Sync()
	}
	return nil
}

// appendWALFrame encodes one record into its on-disk frame.
func appendWALFrame(b []byte, r *Record) ([]byte, error) {
	start := len(b)
	b = append(b, byte(r.Kind))
	b = append(b, 0, 0, 0, 0) // length backpatched below
	payloadStart := len(b)
	b, err := appendRecord(b, r)
	if err != nil {
		return nil, err
	}
	payloadLen := len(b) - payloadStart
	if payloadLen > maxRecordPayload {
		return nil, fmt.Errorf("store: record payload %d exceeds %d bytes", payloadLen, maxRecordPayload)
	}
	binary.LittleEndian.PutUint32(b[start+1:], uint32(payloadLen))
	return binary.LittleEndian.AppendUint64(b, checksum.Of(b[start:])), nil
}

// close flushes, syncs and closes the file.
//
// microlint:durable
func (w *walWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// replayWALFile streams every record of one WAL file through fn and
// reports via torn a file that ends mid-header or mid-frame, the crash
// signature. When tail is set (the newest file) the damage is repaired
// so later passes see a clean directory: a torn header, which holds no
// records, is rewritten whole and synced (the file stays, so sequence
// numbers never go backwards), and a torn frame is truncated off at the
// last good frame boundary. Any other file is left as found. A frame
// that fails its checksum is ErrWALCorrupt.
func replayWALFile(path string, tail bool, fn func(*Record) error) (records, bytes int64, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()

	br := bufio.NewReader(f)
	hdr := make([]byte, walHeaderSize)
	if n, rerr := io.ReadFull(br, hdr); rerr != nil {
		if string(hdr[:n]) != string(walHeader[:n]) {
			return 0, 0, false, fmt.Errorf("%w: %s: bad header %q", ErrWAL, path, hdr[:n])
		}
		if tail {
			err = rewriteHeader(f)
		}
		return 0, 0, true, err
	}
	if string(hdr[:4]) != walMagic {
		return 0, 0, false, fmt.Errorf("%w: %s: bad magic %q", ErrWAL, path, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != walVersion {
		return 0, 0, false, fmt.Errorf("%w: %s: version %d, want %d: re-snapshot from a cold Build", ErrWAL, path, v, walVersion)
	}

	offset := int64(walHeaderSize) // end of the last good record
	var frame []byte
	for {
		prefix := make([]byte, 5) // kind + length
		if _, err := io.ReadFull(br, prefix); err != nil {
			if err == io.EOF {
				return records, bytes, false, nil
			}
			break // tore inside the frame prefix
		}
		payloadLen := binary.LittleEndian.Uint32(prefix[1:])
		if payloadLen > maxRecordPayload {
			return records, bytes, false, fmt.Errorf("%w: %s: frame length %d at offset %d",
				ErrWALCorrupt, path, payloadLen, offset)
		}
		frameLen := int(payloadLen) + walFrameOverhead
		if cap(frame) < frameLen {
			frame = make([]byte, frameLen)
		}
		frame = frame[:frameLen]
		copy(frame, prefix)
		if _, err := io.ReadFull(br, frame[5:]); err != nil {
			break // tore inside the payload or checksum
		}
		body := frame[:frameLen-checksum.Size]
		want := binary.LittleEndian.Uint64(frame[frameLen-checksum.Size:])
		if checksum.Of(body) != want {
			return records, bytes, false, fmt.Errorf("%w: %s: checksum mismatch at offset %d",
				ErrWALCorrupt, path, offset)
		}
		rec, err := decodeRecord(Kind(frame[0]), body[5:])
		if err != nil {
			return records, bytes, false, fmt.Errorf("%s: offset %d: %w", path, offset, err)
		}
		if err := fn(&rec); err != nil {
			return records, bytes, false, err
		}
		records++
		bytes += int64(frameLen)
		offset += int64(frameLen)
	}
	if tail {
		err = f.Truncate(offset)
	}
	return records, bytes, true, err
}

// rewriteHeader restores a file torn inside its header to the
// header-only file createWAL would have left.
//
// microlint:durable
func rewriteHeader(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(walHeader, 0); err != nil {
		return err
	}
	return f.Sync()
}
