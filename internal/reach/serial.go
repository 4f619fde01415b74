package reach

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"microlink/internal/checksum"
	"microlink/internal/graph"
)

// Binary serialization of the 2-hop cover, the one persisted
// reachability index. Construction is the expensive step (Table 5's
// "indexing time" column); a production service builds once and reloads
// on start. The image is versioned and guarded by a fingerprint of the
// graph it was built over, so it can never be loaded against the wrong
// network, plus a trailing checksum over the payload (package checksum:
// CRC-32C and CRC-32 IEEE, both on the CPU's CRC instructions).
//
// Layout (little endian):
//
//	magic "MLRI" | version u16 | kind u8 | maxHops u8
//	graph fingerprint u64
//	payload
//	checksum(payload) u64
//
// Payload (kind 2, version 3): the frozen CSR arenas of TwoHop exactly as
// they are held in memory, the followee pool first, so loading is a bulk
// decode with no re-interning:
//
//	n u32
//	pool    p u32 | p × i32   interned followee pool
//	order   n × i32        landmark order (rank → node)
//	outOff  (n+1) × i32    CSR offsets into outLab
//	inOff   (n+1) × i32    CSR offsets into inLab
//	outLab  outOff[n] × (hub i32 | folOff i32 | folLen u16 | dist u8)
//	inLab   inOff[n] × (same record)
//
// Stream, then verify. Both sides move the image through one 64 KiB
// buffer, never the whole image. The reader adds each chunk to the
// checksum as it passes, decodes each array straight into its final
// slice and validates it on the way (see ReadTwoHop); the pool comes
// first so that each label's followee run can be checked against it as
// the label goes by. The trailer is compared before ReadTwoHop returns a
// cover, and a structural error is reported only once the rest of the
// image has been checksummed and the checksum holds, so a damaged file
// reads as a checksum mismatch, as it always has. Every count is bounded
// by the bytes the file has left — its size comes from Stat on an
// *os.File or Len on an in-memory reader, and a reader with neither is
// read whole first — so a damaged count is an ErrFormat, never an
// absurd allocation.
//
// Any other kind (kind 1 was the transitive closure, no longer
// persisted) and any other version (1 and 2 were earlier layouts of this
// one) are rejected with ErrFormat, not upgraded: re-snapshot from a cold
// Build.

const (
	serialMagic = "MLRI"
	headerLen   = 16 // magic, version, kind, maxHops, fingerprint
	trailerLen  = checksum.Size

	kindTwoHop    = 2
	twoHopVersion = 3

	labelLen = 11 // hub i32 | folOff i32 | folLen u16 | dist u8

	// chunkLen is the one buffer an image moves through, either way.
	chunkLen = 64 << 10
)

// ErrFormat reports a malformed or incompatible index file.
var ErrFormat = errors.New("reach: bad index file")

// ErrGraphMismatch reports an index built over a different graph.
var ErrGraphMismatch = errors.New("reach: index does not match graph")

var le = binary.LittleEndian

// Fingerprint summarises a graph's structure for load-time validation.
func Fingerprint(g *graph.Graph) uint64 {
	var sum uint64
	var buf [8]byte
	put := func(v uint64) {
		le.PutUint64(buf[:], v)
		sum = checksum.Update(sum, buf[:])
	}
	put(uint64(g.NumNodes()))
	put(uint64(g.NumEdges()))
	// Sample degree structure: cheap but discriminating.
	step := g.NumNodes()/64 + 1
	for u := 0; u < g.NumNodes(); u += step {
		put(uint64(u)<<32 | uint64(g.OutDegree(graph.NodeID(u)))<<16 | uint64(g.InDegree(graph.NodeID(u))))
	}
	return sum
}

// encoder streams a payload through one chunk-sized buffer, adding each
// chunk to the checksum as it is written out. The first write error
// latches; later writes are dropped.
type encoder struct {
	w   io.Writer
	b   []byte
	sum uint64
	n   int64
	err error
}

// room makes space for k more bytes (k ≤ chunkLen) in the buffer.
func (e *encoder) room(k int) {
	if len(e.b)+k > cap(e.b) {
		e.flush()
	}
}

func (e *encoder) flush() {
	e.sum = checksum.Update(e.sum, e.b)
	e.write(e.b)
	e.b = e.b[:0]
}

func (e *encoder) write(p []byte) {
	if e.err == nil {
		var n int
		n, e.err = e.w.Write(p)
		e.n += int64(n)
	}
}

func (e *encoder) u32(v uint32) {
	e.room(4)
	e.b = le.AppendUint32(e.b, v)
}

func (e *encoder) int32s(s []int32) {
	for _, v := range s {
		e.u32(uint32(v))
	}
}

func (e *encoder) labels(ls []thLabelFlat) {
	for _, l := range ls {
		e.room(labelLen)
		e.b = le.AppendUint32(e.b, uint32(l.hub))
		e.b = le.AppendUint32(e.b, uint32(l.folOff))
		e.b = le.AppendUint16(e.b, l.folLen)
		e.b = append(e.b, l.dist)
	}
}

// WriteTo serialises the 2-hop cover: the followee pool, the landmark
// order and the frozen label arenas, as they are held in memory.
func (th *TwoHop) WriteTo(w io.Writer) (int64, error) {
	hdr := append([]byte(serialMagic), 0, 0, kindTwoHop, uint8(th.h))
	le.PutUint16(hdr[4:], twoHopVersion)
	hdr = le.AppendUint64(hdr, Fingerprint(th.g))
	e := &encoder{w: w, b: make([]byte, 0, chunkLen)}
	e.write(hdr)
	e.u32(uint32(len(th.order)))
	e.u32(uint32(len(th.folPool)))
	e.int32s(th.folPool)
	e.int32s(th.order)
	e.int32s(th.outOff)
	e.int32s(th.inOff)
	e.labels(th.outLab)
	e.labels(th.inLab)
	e.flush()
	e.write(le.AppendUint64(nil, e.sum))
	return e.n, e.err
}

// decoder streams an image through one chunk-sized buffer. Payload bytes
// are added to the checksum as they are consumed; left counts the bytes
// of the image not yet consumed (trailer included) and bounds every
// count. The first error latches and later reads return nothing, so a
// caller checks err once per stage.
type decoder struct {
	r    io.Reader
	buf  []byte // buf[pos:] holds read, unconsumed bytes
	pos  int
	left int64
	sum  uint64
	err  error
}

// imageSize reports the bytes r will deliver: Len for an in-memory
// reader, Stat's size for a regular file.
func imageSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len()), true
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	}
	return 0, false
}

// newDecoder sizes r, reading it whole only when its size is unknown.
func newDecoder(r io.Reader) (*decoder, error) {
	size, ok := imageSize(r)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		r, size = bytes.NewReader(data), int64(len(data))
	}
	if size < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header and trailer", ErrFormat, size)
	}
	return &decoder{r: r, buf: make([]byte, 0, chunkLen), left: size}, nil
}

// fill makes at least k ≤ chunkLen unconsumed bytes available, moving
// the remainder to the front of the buffer and reading behind it.
func (d *decoder) fill(k int) {
	if d.err != nil || len(d.buf)-d.pos >= k {
		return
	}
	if int64(k) > d.left {
		d.err = fmt.Errorf("%w: %d bytes wanted, %d left", ErrFormat, k, d.left)
		return
	}
	n := copy(d.buf[:cap(d.buf)], d.buf[d.pos:])
	m, err := io.ReadAtLeast(d.r, d.buf[n:cap(d.buf)], k-n)
	d.buf, d.pos = d.buf[:n+m], 0
	if err != nil {
		d.err = fmt.Errorf("%w: image truncated: %v", ErrFormat, err)
	}
}

// take consumes the next k ≤ chunkLen payload bytes.
func (d *decoder) take(k int) []byte {
	d.fill(k)
	if d.err != nil {
		return nil
	}
	p := d.buf[d.pos : d.pos+k]
	d.pos += k
	d.left -= int64(k)
	d.sum = checksum.Update(d.sum, p)
	return p
}

// chunk consumes as many whole elements of size bytes as the buffer
// holds, at least one and at most want, returning them and their count.
func (d *decoder) chunk(want, size int) ([]byte, int) {
	d.fill(size)
	if d.err != nil {
		return nil, 0
	}
	m := min(want, (len(d.buf)-d.pos)/size)
	return d.take(m * size), m
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); d.err == nil {
		return le.Uint32(p)
	}
	return 0
}

// fits rejects c elements of size bytes unless they fit in the payload
// bytes left, so every slice the image sizes is bounded by the file.
func (d *decoder) fits(c int64, size int) bool {
	if d.err == nil && c > (d.left-trailerLen)/int64(size) {
		d.err = fmt.Errorf("%w: count %d of %d-byte elements, %d bytes left", ErrFormat, c, size, d.left-trailerLen)
	}
	return d.err == nil
}

// int32s decodes n i32s.
func (d *decoder) int32s(n int) []int32 {
	if !d.fits(int64(n), 4) {
		return nil
	}
	s := make([]int32, n)
	for i := 0; i < n && d.err == nil; {
		p, m := d.chunk(n-i, 4)
		for j := 0; j < m; j, i = j+1, i+1 {
			s[i] = int32(le.Uint32(p[4*j:]))
		}
	}
	return s
}

// descents marks, one bit per pool index i, where pool[i] ≤ pool[i-1]: a
// followee run strictly ascends exactly when no bit inside it is set. It
// holds a spare word past the pool so a 64-bit window can start anywhere.
type descents []uint64

// ascends reports whether pool[off:off+n] strictly ascends, i.e. no
// descent at any index in (off, off+n). A run of up to 64 ids, all but
// a few, is one test on the 64-bit window that starts at off; a longer
// one takes a window per 63 ids.
func (ds descents) ascends(off, n int) bool {
	for ; n > 64; off, n = off+63, n-63 {
		if !ds.window(off, 64) {
			return false
		}
	}
	return ds.window(off, n)
}

// window reports whether no descent bit is set in (off, off+n), n ≤ 64.
func (ds descents) window(off, n int) bool {
	w, s := uint(off)>>6, uint(off)&63
	return (ds[w]>>s|ds[w+1]<<(64-s))&(^uint64(0)>>(64-n))&^1 == 0
}

// pool decodes the followee pool of an n-node cover, range-checking every
// id and marking its descents.
func (d *decoder) pool(n int32) ([]int32, descents) {
	p := int(d.u32())
	if !d.fits(int64(p), 4) {
		return nil, nil
	}
	pool, ds := make([]int32, p), make(descents, p>>6+2)
	prev := int32(-1)
	for i := 0; i < p && d.err == nil; {
		b, m := d.chunk(p-i, 4)
		for j := 0; j < m; j, i = j+1, i+1 {
			v := int32(le.Uint32(b[4*j:]))
			if uint32(v) >= uint32(n) {
				d.err = fmt.Errorf("%w: pooled followee %d out of range", ErrFormat, v)
				return nil, nil
			}
			// With both in [-1, n), v ≤ prev exactly when v-prev-1 is
			// negative: its sign bit is the descent bit, no branch.
			ds[i>>6] |= uint64(uint32(v-prev-1)>>31) << (i & 63)
			pool[i], prev = v, v
		}
	}
	return pool, ds
}

// labels decodes one label arena sized and partitioned by off (already
// checked) and validates each label as it passes: hubs are ranks in
// [0,n) strictly ascending per node, and every followee run lies inside
// the pool, strictly ascending. It also returns the arena's followee
// reference count, the builder's pre-intern FolRefs share.
func (d *decoder) labels(off []int32, pool []int32, ds descents) (labs []thLabelFlat, refs int64) {
	total := int(off[len(off)-1])
	if !d.fits(int64(total), labelLen) {
		return nil, 0
	}
	n, poolLen := uint32(len(off)-1), int64(len(pool))
	labs = make([]thLabelFlat, total)
	u, prev := -1, int32(-1)
	next := int32(0) // the end of node u's run
	for i := 0; i < total && d.err == nil; {
		p, m := d.chunk(total-i, labelLen)
		for end := i + m; i < end; i++ {
			for int32(i) >= next {
				u++
				next, prev = off[u+1], -1
			}
			q := p[:labelLen:labelLen]
			p = p[labelLen:]
			l := thLabelFlat{
				hub:    int32(le.Uint32(q)),
				folOff: int32(le.Uint32(q[4:])),
				folLen: le.Uint16(q[8:]),
				dist:   q[10],
			}
			if l.hub <= prev || uint32(l.hub) >= n {
				d.err = fmt.Errorf("%w: node %d: hub %d out of range or order", ErrFormat, u, l.hub)
				return nil, 0
			}
			prev = l.hub
			if end := int64(l.folOff) + int64(l.folLen); l.folOff < 0 || end > poolLen {
				d.err = fmt.Errorf("%w: node %d: followee run [%d,%d) outside a pool of %d", ErrFormat, u, l.folOff, end, len(pool))
				return nil, 0
			}
			if l.folLen > 1 && !ds.ascends(int(l.folOff), int(l.folLen)) {
				d.err = fmt.Errorf("%w: node %d: followee run at %d not strictly ascending", ErrFormat, u, l.folOff)
				return nil, 0
			}
			refs += int64(l.folLen)
			labs[i] = l
		}
	}
	return labs, refs
}

// verify ends a decode: the payload must have been consumed exactly,
// and the trailer must match its checksum. With a decode error pending,
// it first checksums the payload bytes left and reports a mismatch in
// place of that error, so only an image whose checksum holds is ever
// called structurally damaged.
func (d *decoder) verify() error {
	if d.err == nil && d.left != trailerLen {
		d.err = fmt.Errorf("%w: %d trailing payload bytes", ErrFormat, d.left-trailerLen)
	}
	decodeErr := d.err
	if decodeErr != nil {
		d.err = nil
		for d.left > trailerLen && d.err == nil {
			d.take(int(min(d.left-trailerLen, chunkLen)))
		}
	}
	d.fill(trailerLen)
	switch {
	case decodeErr == nil && d.err != nil:
		return d.err
	case d.err == nil && le.Uint64(d.buf[d.pos:]) != d.sum:
		return fmt.Errorf("%w: checksum mismatch", ErrFormat)
	}
	return decodeErr
}

// ReadTwoHop loads a 2-hop cover previously written with WriteTo,
// validating it against g. It streams the image through one 64 KiB
// buffer and decodes every array straight into the cover's own slices,
// checking every invariant the query path relies on as the bytes go by,
// so a payload that passes its checksum yet breaks one is an ErrFormat,
// not a panic later: order is a permutation of [0,n); each offset array
// starts at 0, never decreases and ends at its arena's label count; hubs
// lie in [0,n) and strictly ascend within a node's run; every followee
// run lies inside the pool; and pool ids lie in [0,n) and strictly
// ascend within each run. Nothing is returned before the trailer
// checksum has been compared.
func ReadTwoHop(r io.Reader, g *graph.Graph) (*TwoHop, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	hops, err := d.header(Fingerprint(g))
	if err != nil {
		return nil, err
	}
	n := int(d.u32())
	if d.err == nil && n != g.NumNodes() {
		d.err = ErrGraphMismatch
	}
	th := &TwoHop{g: g, h: hops}
	var ds descents
	th.folPool, ds = d.pool(int32(n))
	th.order = d.int32s(n)
	if d.err == nil {
		th.rank, d.err = rankOf(th.order)
	}
	th.outOff = d.int32s(n + 1)
	if d.err == nil {
		d.err = checkOffsets(th.outOff)
	}
	th.inOff = d.int32s(n + 1)
	if d.err == nil {
		d.err = checkOffsets(th.inOff)
	}
	var outRefs, inRefs int64
	if d.err == nil {
		th.outLab, outRefs = d.labels(th.outOff, th.folPool, ds)
		th.inLab, inRefs = d.labels(th.inOff, th.folPool, ds)
	}
	if err := d.verify(); err != nil {
		return nil, err
	}
	_, th.info.Partitions = partitionScheme(n)
	th.info.FolRefs = outRefs + inRefs
	th.info.FolPool = int64(len(th.folPool))
	th.stats = BuildStats{Entries: int64(len(th.outLab) + len(th.inLab))}
	return th, nil
}

// header checks, in order, the image's magic, kind and version, its hop
// bound and the graph fingerprint, and returns the hop bound.
func (d *decoder) header(fp uint64) (hops int, err error) {
	d.fill(headerLen)
	if d.err != nil {
		return 0, d.err
	}
	h := d.buf[:headerLen]
	d.pos, d.left = headerLen, d.left-headerLen
	if string(h[:4]) != serialMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrFormat, h[:4])
	}
	version, kind := le.Uint16(h[4:]), h[6]
	if kind != kindTwoHop {
		return 0, fmt.Errorf("%w: kind %d, want %d", ErrFormat, kind, kindTwoHop)
	}
	if version != twoHopVersion {
		return 0, fmt.Errorf("%w: version %d, want %d: re-snapshot from a cold Build", ErrFormat, version, twoHopVersion)
	}
	if le.Uint64(h[8:]) != fp {
		return 0, ErrGraphMismatch
	}
	if hops = int(h[7]); hops > maxTwoHopHops {
		return 0, fmt.Errorf("%w: hop bound %d above %d", ErrFormat, hops, maxTwoHopHops)
	}
	return hops, nil
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
