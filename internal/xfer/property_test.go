package xfer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSplitBytesProperties checks SplitBytes invariants for arbitrary
// inputs: conservation (shares sum to the total), non-negativity, and
// chunk alignment on all but the remainder path.
func TestSplitBytesProperties(t *testing.T) {
	f := func(totalRaw uint32, capsRaw []uint16, chunkRaw uint8) bool {
		if len(capsRaw) == 0 {
			return true
		}
		if len(capsRaw) > 8 {
			capsRaw = capsRaw[:8]
		}
		bytes := int64(totalRaw)
		chunk := int64(chunkRaw)%256 + 1
		paths := make([]Path, len(capsRaw))
		for i, c := range capsRaw {
			paths[i] = Path{Bps: float64(c) + 1}
		}
		shares := SplitBytes(bytes, paths, chunk)
		if len(shares) != len(paths) {
			return false
		}
		var sum int64
		best := 0
		for i, s := range shares {
			if s < 0 {
				return false
			}
			sum += s
			if paths[i].Bps > paths[best].Bps {
				best = i
			}
		}
		if sum != bytes {
			return false
		}
		// Every non-remainder path is chunk-aligned.
		for i, s := range shares {
			if i != best && s%chunk != 0 {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

// TestSplitBytesSubChunkRegime drives the remainder-heavy regime where
// bytes < len(paths)*chunk: most proportional shares quantize to zero and
// nearly the whole payload rides the remainder path. Conservation and
// non-negativity must still hold, and something must actually move.
func TestSplitBytesSubChunkRegime(t *testing.T) {
	f := func(bytesRaw uint16, capsRaw []uint16, chunkRaw uint16) bool {
		if len(capsRaw) < 2 {
			return true
		}
		if len(capsRaw) > 8 {
			capsRaw = capsRaw[:8]
		}
		chunk := int64(chunkRaw) + 1
		// Clamp the payload strictly below len(paths)*chunk.
		bytes := int64(bytesRaw)%(int64(len(capsRaw))*chunk) + 1
		paths := make([]Path, len(capsRaw))
		for i, c := range capsRaw {
			paths[i] = Path{Bps: float64(c) + 1}
		}
		shares := SplitBytes(bytes, paths, chunk)
		var sum int64
		positive := false
		for _, s := range shares {
			if s < 0 {
				return false
			}
			if s > 0 {
				positive = true
			}
			sum += s
		}
		return sum == bytes && positive
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("quick.Check seed %d: %v", seed, err)
	}
}

// TestSplitBytesHugePayload is the regression the share clamp fixes: above
// 2^53, float64 share arithmetic can round the dominant path's share past
// the total, which used to drive the remainder (fastest) path negative.
func TestSplitBytesHugePayload(t *testing.T) {
	cases := []struct {
		bytes int64
		paths []Path
		chunk int64
	}{
		{1<<62 + 12345, []Path{{Bps: 1e12}, {Bps: 1}}, 1},
		{1<<62 + 12345, []Path{{Bps: 1}, {Bps: 1e12}}, 1},
		{(1 << 53) + 1, []Path{{Bps: 3}, {Bps: 5}, {Bps: 7}}, 1},
		{1<<62 + 999, []Path{{Bps: 1e9}, {Bps: 1e9}, {Bps: 1}}, 4 << 20},
	}
	for _, c := range cases {
		shares := SplitBytes(c.bytes, c.paths, c.chunk)
		var sum int64
		for i, s := range shares {
			if s < 0 {
				t.Errorf("bytes=%d chunk=%d: negative share %d on path %d: %v", c.bytes, c.chunk, s, i, shares)
			}
			sum += s
		}
		if sum != c.bytes {
			t.Errorf("bytes=%d chunk=%d: shares sum to %d: %v", c.bytes, c.chunk, sum, shares)
		}
	}
}

// TestSplitBytesZeroChunk guards the degenerate chunk sizes: quantization is
// skipped rather than dividing by zero.
func TestSplitBytesZeroChunk(t *testing.T) {
	for _, chunk := range []int64{0, -8} {
		shares := SplitBytes(1000, []Path{{Bps: 1}, {Bps: 3}}, chunk)
		if shares[0]+shares[1] != 1000 || shares[0] < 0 || shares[1] < 0 {
			t.Errorf("chunk=%d: bad split %v", chunk, shares)
		}
	}
}

// TestSplitBytesMonotoneInCapacity checks that a strictly faster path never
// receives fewer bytes than a slower one (for multi-chunk transfers).
func TestSplitBytesMonotoneInCapacity(t *testing.T) {
	paths := []Path{{Bps: 100}, {Bps: 200}, {Bps: 400}}
	shares := SplitBytes(1<<30, paths, DefaultChunkBytes)
	for i := 1; i < len(shares); i++ {
		if shares[i] < shares[i-1] {
			t.Errorf("faster path got fewer bytes: %v", shares)
		}
	}
}
