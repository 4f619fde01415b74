// Package checksum defines the one integrity check every file the store
// writes carries — the 2-hop arena image, the segments and each WAL
// record: a 64-bit value made of two 32-bit CRCs over the same bytes,
// CRC-32C (Castagnoli) in the high word and CRC-32 (IEEE) in the low
// word. hash/crc32 runs both on the CPU's CRC instructions (SSE 4.2 and
// PCLMULQDQ on amd64, the CRC32 extension on arm64), several times the
// speed of a table-driven CRC-64 of the same width.
package checksum

import "hash/crc32"

// Size is the width of a checksum trailer in bytes.
const Size = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Update returns the checksum of the bytes sum covers followed by p; the
// checksum of no bytes is 0, so a stream is summed chunk by chunk from 0.
func Update(sum uint64, p []byte) uint64 {
	c := crc32.Update(uint32(sum>>32), castagnoli, p)
	ieee := crc32.Update(uint32(sum), crc32.IEEETable, p)
	return uint64(c)<<32 | uint64(ieee)
}

// Of returns the checksum of p.
func Of(p []byte) uint64 { return Update(0, p) }
