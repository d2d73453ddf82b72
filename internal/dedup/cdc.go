package dedup

// Content-defined chunking. Fixed-size chunking (the in-memory Store above)
// breaks down when sibling images differ by insertions: one shifted byte
// re-keys every downstream chunk. The gear rolling hash cuts chunk
// boundaries where the *content* says to, so an edit only re-keys the
// chunks it touches — the property the manifest-first delta transfer
// depends on ("peer-transfer bytes for a v2 image ≈ delta size").

const (
	// MinChunk..MaxChunk bound chunk sizes; AvgChunk tunes the boundary
	// mask. MaxChunk stays far below the rblock payload ceiling (8 MiB)
	// so one chunk always fits one OpChunkBatch reply.
	MinChunk = 4 << 10   // 4 KiB
	AvgChunk = 16 << 10  // 16 KiB: mask of 14 one-bits
	MaxChunk = 128 << 10 // 128 KiB

	// boundaryMask has log2(AvgChunk)-ish one-bits: a boundary fires when
	// the rolling hash has zeros in all masked positions, i.e. with
	// probability 2^-14 per byte once past MinChunk.
	boundaryMask = 0x0000_3FFF_0000_0000
)

// gearTable is a fixed pseudo-random substitution table. It must never
// change: chunk boundaries (and therefore every stored manifest) depend on
// it. Generated once from a splitmix64 sequence seeded with the paper's
// publication year.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	state := uint64(2013)
	for i := range t {
		// splitmix64 step — deterministic, no math/rand dependency.
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// gearWindow is the effective width of the rolling hash: each table value
// entering h is shifted left once per subsequent byte, so after 64 shifts
// its contribution has left the 64-bit state entirely. The hash at any
// position therefore depends only on the last 64 bytes before it.
const gearWindow = 64

// cutPoint returns the length of the first content-defined chunk of p
// (p non-empty). If no boundary fires the chunk is capped at MaxChunk, and
// a short final buffer is one whole chunk.
func cutPoint(p []byte) int {
	n := len(p)
	if n <= MinChunk {
		return n
	}
	if n > MaxChunk {
		n = MaxChunk
	}
	var h uint64
	// Warm the hash up to its state at the MinChunk boundary. Only the
	// last gearWindow bytes of the prefix contribute (older bytes have
	// shifted out of the 64-bit state), so the warm-up skips the rest of
	// the MinChunk prefix — same boundaries, ~MinChunk fewer table
	// lookups per chunk.
	for i := MinChunk - gearWindow; i < MinChunk; i++ {
		h = (h << 1) + gearTable[p[i]]
	}
	for i := MinChunk; i < n; i++ {
		h = (h << 1) + gearTable[p[i]]
		if h&boundaryMask == 0 {
			return i + 1
		}
	}
	return n
}
