package checksum

import (
	"hash/crc32"
	"testing"
)

// TestOfIsTheCRCPair pins the definition: CRC-32C high, CRC-32 IEEE low,
// and summing in pieces equals one call over the whole.
func TestOfIsTheCRCPair(t *testing.T) {
	p := []byte("microblog entity linking with social temporal context")
	want := uint64(crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(p))
	if got := Of(p); got != want {
		t.Fatalf("Of = %#x, want %#x", got, want)
	}
	var sum uint64
	for i := 0; i < len(p); i += 7 {
		sum = Update(sum, p[i:min(i+7, len(p))])
	}
	if sum != want {
		t.Fatalf("summed in pieces %#x, want %#x", sum, want)
	}
	if Of(nil) != 0 {
		t.Fatalf("Of(nil) = %#x, want 0", Of(nil))
	}
}
