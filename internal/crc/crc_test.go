package crc

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// bitwise is the CRC-32C of data one bit at a time: reflected, polynomial
// 0x82f63b78, initial and final XOR 0xffffffff. It shares nothing with
// the table-driven or hardware paths Checksum may take.
func bitwise(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			crc = crc>>1 ^ 0x82f63b78&-(crc&1)
		}
	}
	return ^crc
}

func TestKnownVectors(t *testing.T) {
	// RFC 3720 (iSCSI) test vectors for CRC-32C.
	ones, ascending, descending := make([]byte, 32), make([]byte, 32), make([]byte, 32)
	for i := range ascending {
		ones[i], ascending[i], descending[i] = 0xff, byte(i), byte(31-i)
	}
	cases := []struct {
		data []byte
		want uint32
	}{
		{[]byte(""), 0},
		{[]byte("123456789"), 0xe3069283},
		{make([]byte, 32), 0x8a9136aa},
		{ones, 0x62a8ab43},
		{ascending, 0x46dd794e},
		{descending, 0x113fdb5c},
	}
	for _, c := range cases {
		if got := Checksum(c.data); got != c.want {
			t.Errorf("Checksum(%x) = %#x, want %#x", c.data, got, c.want)
		}
		if got := bitwise(c.data); got != c.want {
			t.Errorf("bitwise(%x) = %#x, want %#x", c.data, got, c.want)
		}
	}
}

// TestMatchesBitwise checks Checksum against the bitwise reference over
// random lengths 0–5000 at random alignments of the slice's start, so the
// hardware path's head, 8-byte body and tail all meet it.
func TestMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 5000+8)
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
	for i := 0; i < 300; i++ {
		off, n := rng.IntN(8), rng.IntN(5001)
		data := buf[off : off+n]
		if got, want := Checksum(data), bitwise(data); got != want {
			t.Fatalf("offset %d len %d: got %#x, want %#x", off, n, got, want)
		}
	}
}

func TestPropertyMatchesBitwise(t *testing.T) {
	f := func(data []byte) bool { return Checksum(data) == bitwise(data) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDetectsSingleBitFlip(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		orig := Checksum(data)
		p := int(pos) % len(data)
		data[p] ^= 1 << (bit % 8)
		return Checksum(data) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

var sink uint32

// BenchmarkChecksum times the kernel from a small object to the 4 KiB
// values of the update-4k workload.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		data := make([]byte, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = Checksum(data)
			}
		})
	}
}
