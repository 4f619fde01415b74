package reach

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"unsafe"

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
// Payload (kind 2, version 4): the frozen label columns of TwoHop exactly
// as they are held in memory, the set table and followee pool first, so
// loading is a bulk decode with no re-interning:
//
//	n u32
//	folRefs u64                   followee ids the build's labels referenced
//	sets    s u32 | (s+1) × i32   set table: set k is pool[setOff[k]:setOff[k+1]]
//	pool    p u32 | p × id        interned followee pool; an id is a u16
//	                              when n ≤ 65536 (narrowPool), else an i32
//	order   n × i32               landmark order (rank → node)
//	outOff  (n+1) × i32           CSR offsets into the out columns
//	inOff   (n+1) × i32           CSR offsets into the in columns
//	out     outOff[n] × i32 hub | outOff[n] × u8 dist | outOff[n] × i32 set
//	in      inOff[n] × i32 hub | inOff[n] × u8 dist | inOff[n] × i32 set
//
// Stream, then verify. Neither side holds the whole image. The writer
// moves it through one 64 KiB buffer; the reader passes the header and
// the counts through one, and reads every array straight into its final
// slice, 64 KiB at a time, adding each chunk to the checksum and
// validating it while it is still in cache (see ReadTwoHop). The set table
// comes before the pool, so every set is checked once, in one linear
// pass over the pool; a label then needs only its set id bounded by the
// set count. The trailer is compared before ReadTwoHop returns a
// cover, and a structural error is reported only once the rest of the
// image has been checksummed and the checksum holds, so a damaged file
// reads as a checksum mismatch, as it always has. Every count is bounded
// by the bytes the file has left — its size comes from Stat on an
// *os.File or Len on an in-memory reader, and a reader with neither is
// read whole first — so a damaged count is an ErrFormat, never an
// absurd allocation.
//
// Any other kind (kind 1 was the transitive closure, no longer
// persisted) and any other version (1 to 3 were earlier layouts) are
// rejected with ErrFormat, not upgraded: re-snapshot from a cold Build.

const (
	serialMagic = "MLRI"
	headerLen   = 16 // magic, version, kind, maxHops, fingerprint
	trailerLen  = checksum.Size

	kindTwoHop    = 2
	twoHopVersion = 4

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

func (e *encoder) u64(v uint64) {
	e.room(8)
	e.b = le.AppendUint64(e.b, v)
}

func (e *encoder) int32s(s []int32) {
	for _, v := range s {
		e.u32(uint32(v))
	}
}

func (e *encoder) u16s(s []uint16) {
	for _, v := range s {
		e.room(2)
		e.b = le.AppendUint16(e.b, v)
	}
}

func (e *encoder) bytes(p []byte) {
	for len(p) > 0 {
		e.room(1)
		k := copy(e.b[len(e.b):cap(e.b)], p)
		e.b, p = e.b[:len(e.b)+k], p[k:]
	}
}

// cols writes one direction's hub, dist and set columns.
func (e *encoder) cols(c *thCols) {
	e.int32s(c.hub)
	e.bytes(c.dist)
	e.int32s(c.set)
}

// WriteTo serialises the 2-hop cover: the set table, the followee pool,
// the landmark order and the frozen label columns, as they are held in
// memory.
func (th *TwoHop) WriteTo(w io.Writer) (int64, error) {
	hdr := append([]byte(serialMagic), 0, 0, kindTwoHop, uint8(th.h))
	le.PutUint16(hdr[4:], twoHopVersion)
	hdr = le.AppendUint64(hdr, Fingerprint(th.g))
	e := &encoder{w: w, b: make([]byte, 0, chunkLen)}
	e.write(hdr)
	e.u32(uint32(len(th.order)))
	e.u64(uint64(th.info.FolRefs))
	e.u32(uint32(len(th.setOff) - 1))
	e.int32s(th.setOff)
	e.u32(uint32(th.poolLen()))
	e.u16s(th.pool16)
	e.int32s(th.pool32)
	e.int32s(th.order)
	e.int32s(th.out.off)
	e.int32s(th.in.off)
	e.cols(&th.out)
	e.cols(&th.in)
	e.flush()
	e.write(le.AppendUint64(nil, e.sum))
	return e.n, e.err
}

// decoder streams an image: counts pass through one chunk-sized buffer,
// arrays are read past it into their final slices (read). Payload bytes
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

func (d *decoder) u32() uint32 {
	if p := d.take(4); d.err == nil {
		return le.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); d.err == nil {
		return le.Uint64(p)
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

// read fills p with the next len(p) payload bytes: first what the
// buffer still holds, then straight from the reader, so a column's bytes
// land in their final slice without passing through the buffer. It adds
// them to the checksum.
func (d *decoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if int64(len(p)) > d.left {
		d.err = fmt.Errorf("%w: %d bytes wanted, %d left", ErrFormat, len(p), d.left)
		return
	}
	k := copy(p, d.buf[d.pos:])
	d.pos += k
	if _, err := io.ReadFull(d.r, p[k:]); err != nil {
		d.err = fmt.Errorf("%w: image truncated: %v", ErrFormat, err)
		return
	}
	d.left -= int64(len(p))
	d.sum = checksum.Update(d.sum, p)
}

// hostLittleEndian reports whether an integer slice's memory holds the
// image's byte order, so a column can be read into it as it stands; a
// big-endian host swaps each chunk in place after the same read.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// imageInt is an integer element type of an image column.
type imageInt interface{ uint16 | int32 }

// readInts reads n elements straight into their final slice, chunkLen
// bytes at a time. check, when not nil, sees each chunk while it is still
// in cache, with the index of its first element; its error stops the
// read.
func readInts[T imageInt](d *decoder, n int, check func(at int, s []T) error) []T {
	size := int(unsafe.Sizeof(T(0)))
	if !d.fits(int64(n), size) {
		return nil
	}
	s := make([]T, n)
	for i := 0; i < n && d.err == nil; {
		part := s[i:min(i+chunkLen/size, n)]
		d.read(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(part))), size*len(part)))
		if !hostLittleEndian {
			for j, v := range part {
				if size == 2 {
					part[j] = T(bits.ReverseBytes16(uint16(v)))
				} else {
					part[j] = T(bits.ReverseBytes32(uint32(v)))
				}
			}
		}
		if d.err == nil && check != nil {
			d.err = check(i, part)
		}
		i += len(part)
	}
	if d.err != nil {
		return nil
	}
	return s
}

// int32s is readInts over i32 elements.
func (d *decoder) int32s(n int, check func(at int, s []int32) error) []int32 {
	return readInts(d, n, check)
}

// u8s reads n bytes straight into their final slice.
func (d *decoder) u8s(n int) []uint8 {
	if !d.fits(int64(n), 1) {
		return nil
	}
	s := make([]uint8, n)
	for i := 0; i < n && d.err == nil; i += chunkLen {
		d.read(s[i:min(i+chunkLen, n)])
	}
	return s
}

// ascendingRuns checks, chunk by chunk, an array that the checked offsets
// off cut into runs (run k is [off[k], off[k+1])): every value lies in
// [0,n) and strictly ascends within its run. It is the one check of both
// the followee pool against the set table and each node's hubs against
// its label offsets; what names a run in an error.
type ascendingRuns[T imageInt] struct {
	off  []int32
	n    int32
	what string
	k    int   // the run being read
	prev int32 // its last value, -1 at its start
}

func newAscendingRuns[T imageInt](off []int32, n int, what string) *ascendingRuns[T] {
	return &ascendingRuns[T]{off: off, n: int32(n), what: what, prev: -1}
}

// check is a readInts check: s holds elements [at, at+len(s)). A run that
// ascends from above -1 is non-negative, and its last value is its
// largest, so one compare per value and one per run piece suffice.
func (c *ascendingRuns[T]) check(at int, s []T) error {
	for len(s) > 0 {
		for int(c.off[c.k+1]) == at {
			c.k++
			c.prev = -1
		}
		piece := s[:min(len(s), int(c.off[c.k+1])-at)]
		prev := c.prev
		for _, x := range piece {
			v := int32(x)
			if v <= prev {
				return fmt.Errorf("%w: %s %d: id %d after %d, not strictly ascending", ErrFormat, c.what, c.k, v, prev)
			}
			prev = v
		}
		if prev >= c.n {
			return fmt.Errorf("%w: %s %d: id %d out of range [0,%d)", ErrFormat, c.what, c.k, prev, c.n)
		}
		c.prev = prev
		at += len(piece)
		s = s[len(piece):]
	}
	return nil
}

// setIDs is the int32s check that every set id of a what-label column
// names one of n sets.
func setIDs(n int, what string) func(int, []int32) error {
	return func(at int, s []int32) error {
		for i, v := range s {
			if uint32(v) >= uint32(n) {
				return fmt.Errorf("%w: %s %d names set %d of %d", ErrFormat, what, at+i, uint32(v), n)
			}
		}
		return nil
	}
}

// cols decodes one direction's label columns over its checked offsets:
// hubs are ranks in [0,n) strictly ascending per node, and every set id
// names one of the sets sets.
func (d *decoder) cols(off []int32, sets int, what string) thCols {
	total := int(off[len(off)-1])
	c := thCols{off: off}
	c.hub = d.int32s(total, newAscendingRuns[int32](off, len(off)-1, what+"s of node").check)
	c.dist = d.u8s(total)
	c.set = d.int32s(total, setIDs(sets, what))
	return c
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
// validating it against g. It streams the image, reading every array
// straight into the cover's own slices 64 KiB at a time and checking
// every invariant the query path relies on as the bytes go by, so a
// payload that passes its checksum yet breaks one is an ErrFormat, not a
// panic later: the set table starts at 0, never decreases, holds the
// empty set as set 0 and ends at the pool's length; pool ids lie in
// [0,n) and strictly ascend within each set; order is a permutation of
// [0,n); each offset array starts at 0 and never decreases; hubs lie in
// [0,n) and strictly ascend within a node's run; and every set id is
// below the set count. Nothing is returned before the trailer checksum
// has been compared.
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
	th.info.FolRefs = int64(d.u64())
	sets := int(d.u32())
	th.setOff = d.int32s(sets+1, nil)
	if d.err == nil {
		d.err = checkOffsets("set table", th.setOff)
	}
	if d.err == nil && (sets < 1 || th.setOff[1] != 0) {
		d.err = fmt.Errorf("%w: set table: set 0 is not the empty set", ErrFormat)
	}
	if p := d.u32(); d.err == nil && p != uint32(th.setOff[sets]) {
		d.err = fmt.Errorf("%w: set table ends at %d, the pool holds %d ids", ErrFormat, th.setOff[sets], p)
	}
	if d.err == nil {
		if p := int(th.setOff[sets]); narrowPool(n) {
			th.pool16 = readInts(d, p, newAscendingRuns[uint16](th.setOff, n, "followee set").check)
		} else {
			th.pool32 = readInts(d, p, newAscendingRuns[int32](th.setOff, n, "followee set").check)
		}
	}
	th.order = d.int32s(n, nil)
	if d.err == nil {
		th.rank, d.err = rankOf(th.order)
	}
	outOff := d.int32s(n+1, nil)
	if d.err == nil {
		d.err = checkOffsets("out-label offsets", outOff)
	}
	inOff := d.int32s(n+1, nil)
	if d.err == nil {
		d.err = checkOffsets("in-label offsets", inOff)
	}
	if d.err == nil {
		th.out = d.cols(outOff, sets, "out-label")
		th.in = d.cols(inOff, sets, "in-label")
	}
	if err := d.verify(); err != nil {
		return nil, err
	}
	_, th.info.Partitions = partitionScheme(n)
	th.info.FolPool = int64(th.poolLen())
	th.stats = BuildStats{Entries: int64(len(th.out.hub) + len(th.in.hub))}
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

// checkOffsets checks that a CSR offset array, named what, starts at 0
// and never decreases; its last entry then sizes what it cuts.
func checkOffsets(what string, off []int32) error {
	if off[0] != 0 {
		return fmt.Errorf("%w: %s: entry 0 is %d, want 0", ErrFormat, what, off[0])
	}
	for u := 1; u < len(off); u++ {
		if off[u] < off[u-1] {
			return fmt.Errorf("%w: %s: entry %d decreases (%d < %d)", ErrFormat, what, u, off[u], off[u-1])
		}
	}
	return nil
}
