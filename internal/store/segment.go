package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"microlink/internal/checksum"
	"microlink/internal/graph"
	"microlink/internal/kb"
	"microlink/internal/tweets"
)

// Segment file format (little endian):
//
//	header:  magic "MLSG" | version u16 | kind u8
//	payload: kind-specific, self-delimiting
//	trailer: checksum(payload) u64
//
// The checksum is package checksum's CRC-32C/CRC-32 pair, the one every
// store file carries. Version 1 segments (a CRC-64 trailer, and a tweets
// payload without its mention and string-byte totals) are refused with
// ErrSegmentVersion: re-snapshot from a cold Build.
//
// Segments are immutable: written once under a fresh sequence-numbered
// name, made visible by the manifest commit, deleted when a newer
// generation supersedes them. Readers load the whole file, check the
// checksum, and only then decode the payload from memory, bounding every
// count by the bytes left. The reach segment is the exception — it
// uses the reach package's own (equally versioned and checksummed) MLRI
// format verbatim, so the arena bytes on disk are exactly what
// reach.WriteTo produces.

const (
	segMagic   = "MLSG"
	segVersion = 2

	segKindGraph   = 1
	segKindCKB     = 2
	segKindTweets  = 3
	segKindPending = 4
	segKindWorld   = 5

	segHeaderSize  = 7 // magic + version + kind
	segTrailerSize = checksum.Size

	// maxNodes bounds the graph segment's node count, the one count no
	// byte length bounds (isolated nodes take no payload): the CSR a
	// loaded graph allocates is O(nodes), ≈ 32 MB at this bound — 20× the
	// largest world the experiments generate (48 000 users). Every other
	// count is bounded by the payload bytes that remain, so a corrupt
	// count field produces a typed error, not an absurd allocation.
	maxNodes = 1 << 20
)

// Segment base names, used as manifest keys and in file names.
const (
	segGraphName   = "graph"
	segCKBName     = "ckb"
	segTweetsName  = "tweets"
	segReachName   = "reach"
	segPendingName = "pending"
	segWorldName   = "world"
)

// segNames lists every segment base name a manifest must name.
var segNames = [...]string{segWorldName, segGraphName, segPendingName, segCKBName, segTweetsName, segReachName}

// segName formats the file name of a segment at generation seq.
func segName(seq uint64, kind string) string {
	return fmt.Sprintf("seg-%06d-%s.bin", seq, kind)
}

// parseSegName returns the generation of file, a segment of the given
// kind, and false unless file is exactly segName(seq, kind) for some
// seq ≥ 1.
func parseSegName(file, kind string) (uint64, bool) {
	digits, ok := strings.CutPrefix(file, "seg-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, "-"+kind+".bin"); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || seq == 0 || segName(seq, kind) != file {
		return 0, false
	}
	return seq, true
}

// isSegName reports whether name looks like a segment file (for pruning).
func isSegName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".bin")
}

// writeSegment writes one framed segment: header, payload (checksummed
// as written), trailer. The file is synced before close so a committed
// manifest never references a segment the OS might still lose.
//
// microlint:durable
func writeSegment(path string, kind uint8, payload func(w io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(segMagic); err != nil {
		return err
	}
	var hdr [3]byte
	binary.LittleEndian.PutUint16(hdr[:2], segVersion)
	hdr[2] = kind
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	if err := payload(cw); err != nil {
		return err
	}
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], cw.crc)
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// writeRawSegment writes an externally-framed segment (the reach arena,
// which carries its own magic, version, fingerprint and checksum).
//
// microlint:durable
func writeRawSegment(path string, wt io.WriterTo) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := wt.WriteTo(f); err != nil {
		return err
	}
	return f.Sync()
}

// readSegment reads the file whole and decodes it with decodeSegment.
func readSegment(path string, kind uint8, decode func(d *decoder) error) error {
	b, err := os.ReadFile(path) // presized from Stat
	if err != nil {
		return err
	}
	if err := decodeSegment(b, kind, decode); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// decodeSegment validates a segment image's header, checks the trailer's
// checksum over the payload, and only then runs decode over the verified
// payload, which it must consume exactly. Every failure is ErrSegment
// (or ErrSegmentVersion), never a panic or an allocation sized by an
// unverified field.
func decodeSegment(b []byte, kind uint8, decode func(d *decoder) error) error {
	if len(b) < segHeaderSize+segTrailerSize {
		return fmt.Errorf("%w: %d bytes, shorter than header and trailer", ErrSegment, len(b))
	}
	if string(b[:4]) != segMagic {
		return fmt.Errorf("%w: bad magic %q", ErrSegment, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != segVersion {
		return fmt.Errorf("%w: version %d, want %d: re-snapshot from a cold Build", ErrSegmentVersion, v, segVersion)
	}
	if b[6] != kind {
		return fmt.Errorf("%w: kind %d, want %d", ErrSegment, b[6], kind)
	}
	payload := b[segHeaderSize : len(b)-segTrailerSize]
	if checksum.Of(payload) != binary.LittleEndian.Uint64(b[len(b)-segTrailerSize:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrSegment)
	}
	d := &decoder{b: payload, class: ErrSegment}
	if err := decode(d); err != nil {
		return err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrSegment, len(d.b))
	}
	return nil
}

// crcWriter checksums the payload bytes it passes on to w.
type crcWriter struct {
	w   io.Writer
	crc uint64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = checksum.Update(cw.crc, p)
	return cw.w.Write(p)
}

// Graph payload: n u32 | m u64 | m × (u i32, v i32) in CSR order.

func writeGraphPayload(w io.Writer, g *graph.Graph) error {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(g.NumNodes()))
	binary.LittleEndian.PutUint64(buf[4:12], uint64(g.NumEdges()))
	if _, err := w.Write(buf[:12]); err != nil {
		return err
	}
	var edge [8]byte
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out(graph.NodeID(u)) {
			binary.LittleEndian.PutUint32(edge[:4], uint32(u))
			binary.LittleEndian.PutUint32(edge[4:], uint32(v))
			if _, err := w.Write(edge[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

func readGraphPayload(d *decoder) (*graph.Graph, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n > maxNodes {
		return nil, fmt.Errorf("%w: graph claims %d nodes, limit %d", ErrSegment, n, maxNodes)
	}
	m, err := d.count(8, "graph edges")
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(int(n))
	for i := 0; i < m; i++ {
		u, v := d.pair()
		// Builder.AddEdge panics on out-of-range nodes; corruption must
		// surface as a typed error instead.
		if u < 0 || v < 0 || u >= int32(n) || v >= int32(n) {
			return nil, fmt.Errorf("%w: graph edge %d: %d→%d out of range [0,%d)", ErrSegment, i, u, v, n)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build(), nil
}

// Pending payload: count u64 | count × (u i32, v i32), strictly
// ascending by (u, v) — the follow edges the reach segment's arena does
// not reflect yet.

func writePendingPayload(w io.Writer, pending [][2]graph.NodeID) error {
	buf := make([]byte, 0, 8+8*len(pending))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(pending)))
	for _, e := range pending {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[1]))
	}
	_, err := w.Write(buf)
	return err
}

func readPendingPayload(d *decoder) ([][2]graph.NodeID, error) {
	m, err := d.count(8, "pending edges")
	if err != nil {
		return nil, err
	}
	out := make([][2]graph.NodeID, m)
	for i := range out {
		u, v := d.pair()
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("%w: pending edge %d: %d→%d names a negative node", ErrSegment, i, u, v)
		}
		out[i] = [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)}
		if i > 0 && (out[i-1][0] > u || out[i-1][0] == u && out[i-1][1] >= v) {
			return nil, fmt.Errorf("%w: pending edge %d: %d→%d out of order", ErrSegment, i, u, v)
		}
	}
	return out, nil
}

// Complemented-KB payload: nEntities u32 | per entity: count u32 +
// count × (tweet i64, user i32, time i64), lists in captured
// (time-sorted) order. Per-user tallies are re-derived on load.

func writePostingsPayload(w io.Writer, postings [][]kb.Posting) error {
	var buf [20]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(postings)))
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	for _, ps := range postings {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(ps)))
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
		for _, p := range ps {
			binary.LittleEndian.PutUint64(buf[:8], uint64(p.Tweet))
			binary.LittleEndian.PutUint32(buf[8:12], uint32(p.User))
			binary.LittleEndian.PutUint64(buf[12:20], uint64(p.Time))
			if _, err := w.Write(buf[:20]); err != nil {
				return err
			}
		}
	}
	return nil
}

// postingSize is one encoded posting: tweet i64, user i32, time i64.
const postingSize = 20

func readPostingsPayload(d *decoder) ([][]kb.Posting, error) {
	n, err := d.count32(4, "ckb entities") // each entity carries at least its count
	if err != nil {
		return nil, err
	}
	out := make([][]kb.Posting, n)
	for e := range out {
		cnt, err := d.count32(postingSize, "ckb postings")
		if err != nil {
			return nil, fmt.Errorf("entity %d: %w", e, err)
		}
		if cnt == 0 {
			continue
		}
		raw, err := d.need(cnt * postingSize)
		if err != nil {
			return nil, err
		}
		ps := make([]kb.Posting, cnt)
		for i := range ps {
			p := raw[i*postingSize:]
			ps[i] = kb.Posting{
				Tweet: int64(binary.LittleEndian.Uint64(p[:8])),
				User:  kb.UserID(int32(binary.LittleEndian.Uint32(p[8:12]))),
				Time:  int64(binary.LittleEndian.Uint64(p[12:20])),
			}
		}
		out[e] = ps
	}
	return out, nil
}

// Tweets payload: count u32 | mentions u32 | strBytes u64 | byteLen u64
// | byteLen bytes of packed tweet bodies (the WAL tweet encoding), in
// stored order. mentions and strBytes are the bodies' mention total and
// text-plus-surface byte total, the sizes of the two shared allocations
// the decoder carves every tweet out of in one pass. The live-tweet
// segment and the world's corpus both use it.

func writeTweetsPayload(w io.Writer, ts []tweets.Tweet) error {
	body := make([]byte, 0, 64*len(ts))
	var nMentions, strBytes int
	for i := range ts {
		var err error
		if body, err = appendTweet(body, &ts[i]); err != nil {
			return err
		}
		nMentions += len(ts[i].Mentions)
		strBytes += len(ts[i].Text)
		for _, m := range ts[i].Mentions {
			strBytes += len(m.Surface)
		}
	}
	var buf [24]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ts)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(nMentions))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(strBytes))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(body)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func readTweetsPayload(d *decoder) ([]tweets.Tweet, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	nMentions, err := d.u32()
	if err != nil {
		return nil, err
	}
	strBytes, err := d.u64()
	if err != nil {
		return nil, err
	}
	byteLen, err := d.count(1, "tweet body bytes")
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(byteLen/minTweetSize) || uint64(nMentions) > uint64(byteLen/minMentionSize) || strBytes > uint64(byteLen) {
		return nil, fmt.Errorf("%w: %d tweets, %d mentions and %d string bytes cannot fit in %d bytes",
			ErrSegment, n, nMentions, strBytes, byteLen)
	}
	body, err := d.need(byteLen)
	if err != nil {
		return nil, err
	}
	// One pass carves every tweet out of two exact-size allocations: one
	// string backing for every text and surface, one mention array.
	a := &tweetArena{mentions: make([]tweets.Mention, nMentions)}
	a.text.Grow(int(strBytes))
	out := make([]tweets.Tweet, n)
	bd := &decoder{b: body, class: ErrSegment}
	for i := range out {
		if out[i], err = decodeTweet(bd, a); err != nil {
			return nil, fmt.Errorf("tweet %d: %w", i, err)
		}
	}
	if len(bd.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d tweets", ErrSegment, len(bd.b), n)
	}
	if len(a.mentions) != 0 || a.text.Len() != int(strBytes) {
		return nil, fmt.Errorf("%w: tweets hold %d mentions and %d string bytes, totals say %d and %d",
			ErrSegment, int(nMentions)-len(a.mentions), a.text.Len(), nMentions, strBytes)
	}
	return out, nil
}
