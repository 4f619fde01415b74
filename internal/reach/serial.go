package reach

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"math"

	"microlink/internal/graph"
)

// Binary serialization of the 2-hop cover, the one persisted
// reachability index. Construction is the expensive step (Table 5's
// "indexing time" column); a production service builds once and reloads
// on start. The image is versioned and guarded by a fingerprint of the
// graph it was built over, so it can never be loaded against the wrong
// network, plus a trailing CRC over the payload.
//
// Layout (little endian):
//
//	magic "MLRI" | version u16 | kind u8 | maxHops u8
//	graph fingerprint u64
//	payload
//	crc64(payload) u64
//
// Payload (kind 2, version 2): the frozen CSR arenas of TwoHop exactly as
// they are held in memory, so loading is a bulk decode with no
// re-interning:
//
//	n u32
//	order   n × i32        landmark order (rank → node)
//	outOff  (n+1) × i32    CSR offsets into outLab
//	inOff   (n+1) × i32    CSR offsets into inLab
//	outLab  outOff[n] × (hub i32 | folOff i32 | folLen u16 | dist u8)
//	inLab   inOff[n] × (same record)
//	pool    p u32 | p × i32   interned followee pool
//
// The reader takes the whole image into one buffer and checks the
// fingerprint and the CRC before decoding anything; every count is then
// bounded by the bytes that remain, so a damaged count is an ErrFormat,
// never an absurd allocation. It also validates every decoded value the
// query path relies on (see ReadTwoHop). Any other kind (kind 1 was the
// transitive closure, no longer persisted) and a version-1 2-hop image
// are rejected with ErrFormat, not upgraded: re-snapshot from a cold
// Build.

const (
	serialMagic = "MLRI"
	headerLen   = 16 // magic, version, kind, maxHops, fingerprint
	trailerLen  = 8  // crc64 of the payload

	kindTwoHop    = 2
	twoHopVersion = 2

	labelLen = 11 // hub i32 | folOff i32 | folLen u16 | dist u8
)

// ErrFormat reports a malformed or incompatible index file.
var ErrFormat = errors.New("reach: bad index file")

// ErrGraphMismatch reports an index built over a different graph.
var ErrGraphMismatch = errors.New("reach: index does not match graph")

var crcTable = crc64.MakeTable(crc64.ECMA)

var le = binary.LittleEndian

// Fingerprint summarises a graph's structure for load-time validation.
func Fingerprint(g *graph.Graph) uint64 {
	h := crc64.New(crcTable)
	var buf [8]byte
	put := func(v uint64) {
		le.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.NumNodes()))
	put(uint64(g.NumEdges()))
	// Sample degree structure: cheap but discriminating.
	step := g.NumNodes()/64 + 1
	for u := 0; u < g.NumNodes(); u += step {
		put(uint64(u)<<32 | uint64(g.OutDegree(graph.NodeID(u)))<<16 | uint64(g.InDegree(graph.NodeID(u))))
	}
	return h.Sum64()
}

// appendHeader starts a 2-hop image.
func appendHeader(b []byte, maxHops uint8, fp uint64) []byte {
	b = append(b, serialMagic...)
	b = le.AppendUint16(b, twoHopVersion)
	b = append(b, kindTwoHop, maxHops)
	return le.AppendUint64(b, fp)
}

// seal appends the CRC-64 of everything after the header and writes the
// image with one call.
func seal(w io.Writer, b []byte) (int64, error) {
	b = le.AppendUint64(b, crc64.Checksum(b[headerLen:], crcTable))
	n, err := w.Write(b)
	return int64(n), err
}

func appendInt32s(b []byte, s []int32) []byte {
	for _, v := range s {
		b = le.AppendUint32(b, uint32(v))
	}
	return b
}

func appendLabels(b []byte, ls []thLabelFlat) []byte {
	for _, l := range ls {
		b = le.AppendUint32(b, uint32(l.hub))
		b = le.AppendUint32(b, uint32(l.folOff))
		b = le.AppendUint16(b, l.folLen)
		b = append(b, l.dist)
	}
	return b
}

// readAll reads r to EOF into one buffer, presized from Stat when r has
// one (an *os.File does), so a segment file is read without regrowing.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Size() < math.MaxInt32 {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readImage reads a whole image and checks, in order, its header against
// the 2-hop kind and version and the graph, then the CRC. It returns the
// hop bound and the verified, still undecoded payload.
func readImage(r io.Reader, fp uint64) (hops int, payload []byte, err error) {
	data, err := readAll(r)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if len(data) < headerLen+trailerLen {
		return 0, nil, fmt.Errorf("%w: %d bytes is shorter than header and trailer", ErrFormat, len(data))
	}
	if string(data[:4]) != serialMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:4])
	}
	version, kind := le.Uint16(data[4:]), data[6]
	if kind != kindTwoHop {
		return 0, nil, fmt.Errorf("%w: kind %d, want %d", ErrFormat, kind, kindTwoHop)
	}
	if version != twoHopVersion {
		return 0, nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, version, twoHopVersion)
	}
	if le.Uint64(data[8:]) != fp {
		return 0, nil, ErrGraphMismatch
	}
	payload = data[headerLen : len(data)-trailerLen]
	if crc64.Checksum(payload, crcTable) != le.Uint64(data[len(data)-trailerLen:]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrFormat)
	}
	return int(data[7]), payload, nil
}

// decoder walks a verified payload. Every read is checked against the
// bytes that remain; the first overrun latches err, and later reads return
// zero values, so a caller checks err once per stage.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.err = fmt.Errorf("%w: %d bytes wanted, %d left", ErrFormat, n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); d.err == nil {
		return le.Uint32(p)
	}
	return 0
}

// count reads a u32 element count and rejects it unless that many
// elements of size bytes fit in what remains, so every slice it sizes is
// bounded by the payload.
func (d *decoder) count(size int) int {
	c := int(d.u32())
	if d.err == nil && c > len(d.b)/size {
		d.err = fmt.Errorf("%w: count %d of %d-byte elements, %d bytes left", ErrFormat, c, size, len(d.b))
		return 0
	}
	return c
}

// done reports any overrun, or the bytes left over by a complete decode.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: %d trailing payload bytes", ErrFormat, len(d.b))
	}
	return d.err
}

func (d *decoder) int32s(n int) []int32 {
	p := d.take(4 * n)
	if d.err != nil {
		return nil
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(le.Uint32(p[4*i:]))
	}
	return s
}

func (d *decoder) labels(n int) []thLabelFlat {
	p := d.take(labelLen * n)
	if d.err != nil {
		return nil
	}
	ls := make([]thLabelFlat, n)
	for i := range ls {
		q := p[labelLen*i:]
		ls[i] = thLabelFlat{
			hub:    int32(le.Uint32(q)),
			folOff: int32(le.Uint32(q[4:])),
			folLen: le.Uint16(q[8:]),
			dist:   q[10],
		}
	}
	return ls
}

// WriteTo serialises the 2-hop cover: the landmark order and the frozen
// label arenas, followee pool included, as they are held in memory.
func (th *TwoHop) WriteTo(w io.Writer) (int64, error) {
	n := len(th.order)
	size := headerLen + 4 + 4*n + 2*4*(n+1) +
		labelLen*(len(th.outLab)+len(th.inLab)) + 4 + 4*len(th.folPool) + trailerLen
	b := make([]byte, 0, size)
	b = appendHeader(b, uint8(th.h), Fingerprint(th.g))
	b = le.AppendUint32(b, uint32(n))
	b = appendInt32s(b, th.order)
	b = appendInt32s(b, th.outOff)
	b = appendInt32s(b, th.inOff)
	b = appendLabels(b, th.outLab)
	b = appendLabels(b, th.inLab)
	b = le.AppendUint32(b, uint32(len(th.folPool)))
	b = appendInt32s(b, th.folPool)
	return seal(w, b)
}

// ReadTwoHop loads a 2-hop cover previously written with WriteTo,
// validating it against g. The arenas are used as read; before returning
// them it checks every invariant the query path relies on, so a payload
// that passes its CRC yet breaks one is an ErrFormat, not a panic later:
// order is a permutation of [0,n); each offset array starts at 0, never
// decreases and ends at its arena's label count; hubs lie in [0,n) and
// strictly ascend within a node's run; every followee run lies inside the
// pool; and pool ids lie in [0,n) and strictly ascend within each run.
func ReadTwoHop(r io.Reader, g *graph.Graph) (*TwoHop, error) {
	hops, payload, err := readImage(r, Fingerprint(g))
	if err != nil {
		return nil, err
	}
	d := &decoder{b: payload}
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if n != g.NumNodes() {
		return nil, ErrGraphMismatch
	}
	if hops > maxTwoHopHops {
		return nil, fmt.Errorf("%w: hop bound %d above %d", ErrFormat, hops, maxTwoHopHops)
	}
	th := &TwoHop{g: g, h: hops}
	th.order = d.int32s(n)
	th.outOff = d.int32s(n + 1)
	th.inOff = d.int32s(n + 1)
	if d.err != nil {
		return nil, d.err
	}
	if th.rank, err = rankOf(th.order); err != nil {
		return nil, err
	}
	if err := checkOffsets(th.outOff); err != nil {
		return nil, err
	}
	if err := checkOffsets(th.inOff); err != nil {
		return nil, err
	}
	th.outLab = d.labels(int(th.outOff[n]))
	th.inLab = d.labels(int(th.inOff[n]))
	th.folPool = d.int32s(d.count(4))
	if err := d.done(); err != nil {
		return nil, err
	}
	for _, v := range th.folPool {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: pooled followee %d out of range", ErrFormat, v)
		}
	}
	outRefs, err := checkLabels(th.outOff, th.outLab, th.folPool)
	if err != nil {
		return nil, err
	}
	inRefs, err := checkLabels(th.inOff, th.inLab, th.folPool)
	if err != nil {
		return nil, err
	}
	_, th.info.Partitions = partitionScheme(n)
	th.info.FolRefs = outRefs + inRefs
	th.info.FolPool = int64(len(th.folPool))
	th.stats = BuildStats{Entries: int64(len(th.outLab) + len(th.inLab))}
	return th, nil
}

// rankOf inverts the landmark order, rejecting anything that is not a
// permutation of [0,n).
func rankOf(order []int32) ([]int32, error) {
	rank := make([]int32, len(order))
	for i := range rank {
		rank[i] = -1
	}
	for rk, v := range order {
		if v < 0 || int(v) >= len(order) || rank[v] >= 0 {
			return nil, fmt.Errorf("%w: order is not a permutation (node %d at rank %d)", ErrFormat, v, rk)
		}
		rank[v] = int32(rk)
	}
	return rank, nil
}

// checkOffsets checks that a CSR offset array starts at 0 and never
// decreases; its last entry then sizes the label arena.
func checkOffsets(off []int32) error {
	if off[0] != 0 {
		return fmt.Errorf("%w: offsets start at %d", ErrFormat, off[0])
	}
	for u := 1; u < len(off); u++ {
		if off[u] < off[u-1] {
			return fmt.Errorf("%w: offset %d decreases (%d < %d)", ErrFormat, u, off[u], off[u-1])
		}
	}
	return nil
}

// checkLabels validates one label arena against its offsets (already
// checked) and the pool (ids already range-checked): hubs are ranks in
// [0,n) strictly ascending per node, and every followee run lies inside
// the pool, strictly ascending. It returns the arena's followee reference
// count, the builder's pre-intern FolRefs share.
func checkLabels(off []int32, labs []thLabelFlat, pool []graph.NodeID) (refs int64, err error) {
	n := int32(len(off) - 1)
	for u := int32(0); u < n; u++ {
		prev := int32(-1)
		for _, l := range labs[off[u]:off[u+1]] {
			if l.hub <= prev || l.hub >= n {
				return 0, fmt.Errorf("%w: node %d: hub %d out of range or order", ErrFormat, u, l.hub)
			}
			prev = l.hub
			end := int64(l.folOff) + int64(l.folLen)
			if l.folOff < 0 || end > int64(len(pool)) {
				return 0, fmt.Errorf("%w: node %d: followee run [%d,%d) outside a pool of %d", ErrFormat, u, l.folOff, end, len(pool))
			}
			run := pool[l.folOff:end]
			for i := 1; i < len(run); i++ {
				if run[i] <= run[i-1] {
					return 0, fmt.Errorf("%w: node %d: followee run at %d not strictly ascending", ErrFormat, u, l.folOff)
				}
			}
			refs += int64(l.folLen)
		}
	}
	return refs, nil
}
