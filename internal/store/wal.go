package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"strconv"
	"strings"
)

// WAL file format (little endian):
//
//	header: magic "MLWL" | version u16
//	record: kind u8 | payloadLen u32 | payload | crc64(kind…payload) u64
//
// The checksum covers the kind byte, the length field and the payload,
// so a flipped bit anywhere in the frame is detected. Records are
// appended with buffered writes flushed per batch: a crash can tear at
// most the final record, which replay truncates away; anything else that
// fails the checksum is ErrWALCorrupt.

const (
	walMagic   = "MLWL"
	walVersion = 1

	walHeaderSize    = 6         // magic + version
	walFrameOverhead = 1 + 4 + 8 // kind + length + crc
	maxRecordPayload = 1 << 24   // sanity bound for decode-time allocation
)

var walCRCTable = crc64.MakeTable(crc64.ECMA)

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

// createWAL creates path (which must not exist — sequence numbers never
// repeat) and writes the header.
//
// microlint:durable
func createWAL(path string, fsync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	w := &walWriter{f: f, bw: bufio.NewWriter(f), fsync: fsync}
	if _, err := w.bw.WriteString(walMagic); err != nil {
		return nil, err
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], walVersion)
	if _, err := w.bw.Write(v[:]); err != nil {
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		return nil, err
	}
	w.bytes = walHeaderSize
	return w, nil
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
	crc := crc64.Checksum(b[start:], walCRCTable)
	return binary.LittleEndian.AppendUint64(b, crc), nil
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

// replayWALFile streams every record of one WAL file through fn. A torn
// frame at EOF is truncated off (the crash signature; later passes see a
// clean file) and reported via torn; a frame that fails its checksum, or
// tears before EOF within the buffered view, is ErrWALCorrupt.
func replayWALFile(path string, fn func(*Record) error) (records, bytes int64, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()

	br := bufio.NewReader(f)
	hdr := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, 0, false, fmt.Errorf("%w: %s: short header", ErrWAL, path)
	}
	if string(hdr[:4]) != walMagic {
		return 0, 0, false, fmt.Errorf("%w: %s: bad magic %q", ErrWAL, path, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != walVersion {
		return 0, 0, false, fmt.Errorf("%w: %s: version %d, want %d", ErrWAL, path, v, walVersion)
	}

	offset := int64(walHeaderSize) // end of the last good record
	var frame []byte
	for {
		prefix := make([]byte, 5) // kind + length
		if _, err := io.ReadFull(br, prefix); err != nil {
			if err == io.EOF {
				return records, bytes, false, nil
			}
			// Tore inside the frame prefix.
			return records, bytes, true, truncateTail(f, offset)
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
			// Tore inside the payload or checksum.
			return records, bytes, true, truncateTail(f, offset)
		}
		body := frame[:frameLen-8]
		want := binary.LittleEndian.Uint64(frame[frameLen-8:])
		if crc64.Checksum(body, walCRCTable) != want {
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
}

// truncateTail chops a torn final record off at the last good frame
// boundary, restoring the file to a cleanly-appendable state.
func truncateTail(f *os.File, offset int64) error {
	return f.Truncate(offset)
}
