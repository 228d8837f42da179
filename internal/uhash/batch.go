package uhash

import "sync"

// Batch hashing: the ingestion hot path of every sketch hashes items one
// interface call at a time, which costs a dynamic dispatch per item and
// keeps the hasher's seeds out of registers. The helpers here hash whole
// slices per call — natively for the default Mixer (seeds pinned in locals
// across the loop), and by a plain per-item loop for the other families —
// so the sketches' fused batch-insert loops pay at most one dispatch per
// BatchSize items.

// BatchSize is the chunk length the fused ingestion paths hash at a time.
// One chunk of two uint64 output buffers is 4 KiB — small enough to stay
// resident in L1 while large enough to amortize per-chunk overhead.
const BatchSize = 256

// BatchHasher is optionally implemented by hashers with a native
// (dispatch-free) batch loop. The batch methods must produce exactly the
// outputs of the corresponding per-item methods, in order; lo may be nil
// when the caller needs only the high words.
type BatchHasher interface {
	Sum128Uint64Batch(keys []uint64, hi, lo []uint64)
	Sum128StringBatch(keys []string, hi, lo []uint64)
}

// Sum128Uint64Batch fills hi[i], lo[i] with h.Sum128Uint64(keys[i]) for
// every key, using the hasher's native batch loop when it has one. lo may
// be nil to request only the high words. hi (and lo when non-nil) must be
// at least len(keys) long.
func Sum128Uint64Batch(h Hasher, keys []uint64, hi, lo []uint64) {
	if bh, ok := h.(BatchHasher); ok {
		bh.Sum128Uint64Batch(keys, hi, lo)
		return
	}
	if lo == nil {
		for i, k := range keys {
			hi[i], _ = h.Sum128Uint64(k)
		}
		return
	}
	for i, k := range keys {
		hi[i], lo[i] = h.Sum128Uint64(k)
	}
}

// Sum128StringBatch fills hi[i], lo[i] with h.Sum128String(keys[i]) for
// every key, using the hasher's native batch loop when it has one. lo may
// be nil to request only the high words.
func Sum128StringBatch(h Hasher, keys []string, hi, lo []uint64) {
	if bh, ok := h.(BatchHasher); ok {
		bh.Sum128StringBatch(keys, hi, lo)
		return
	}
	if lo == nil {
		for i, k := range keys {
			hi[i], _ = h.Sum128String(k)
		}
		return
	}
	for i, k := range keys {
		hi[i], lo[i] = h.Sum128String(k)
	}
}

// Sum128Uint64Batch implements BatchHasher natively: the round and
// finalizer math of Sum128Uint64 hand-inlined into one loop, with the
// seeds in registers and the k2 = 0 half of the round — which reduces to
// adding rotl64(seed2, 31), a per-batch constant — hoisted out. The
// outputs are bit-identical to per-item Sum128Uint64 (asserted by the
// package tests).
func (m *Mixer) Sum128Uint64Batch(keys []uint64, hi, lo []uint64) {
	s1, s2 := m.seed1, m.seed2
	h2base := rotl64(s2, 31) // mixRound's h2 term for k2 = 0
	if lo == nil {
		hi = hi[:len(keys)]
		for i, x := range keys {
			k1 := x * mixK1
			k1 = rotl64(k1, 31)
			k1 *= mixK2
			h1 := s1 ^ k1
			h1 = rotl64(h1, 27) + s2
			h1 = h1*5 + 0x52dce729
			h2 := h2base + h1
			h2 = h2*5 + 0x38495ab5
			// mixFinal(h1, h2, 8):
			h1 ^= 8
			h2 ^= 8
			h1 += h2
			h2 += h1
			h1 = fmix64(h1)
			h2 = fmix64(h2)
			hi[i] = h1 + h2
		}
		return
	}
	hi = hi[:len(keys)]
	lo = lo[:len(keys)]
	for i, x := range keys {
		k1 := x * mixK1
		k1 = rotl64(k1, 31)
		k1 *= mixK2
		h1 := s1 ^ k1
		h1 = rotl64(h1, 27) + s2
		h1 = h1*5 + 0x52dce729
		h2 := h2base + h1
		h2 = h2*5 + 0x38495ab5
		// mixFinal(h1, h2, 8):
		h1 ^= 8
		h2 ^= 8
		h1 += h2
		h2 += h1
		h1 = fmix64(h1)
		h2 = fmix64(h2)
		h1 += h2
		h2 += h1
		hi[i], lo[i] = h1, h2
	}
}

// Sum128StringBatch implements BatchHasher: per-key work is the variable
// length block loop, but the dispatch to it is direct rather than through
// the Hasher interface.
func (m *Mixer) Sum128StringBatch(keys []string, hi, lo []uint64) {
	if lo == nil {
		hi = hi[:len(keys)]
		for i, k := range keys {
			hi[i], _ = m.Sum128(stringBytes(k))
		}
		return
	}
	hi = hi[:len(keys)]
	lo = lo[:len(keys)]
	for i, k := range keys {
		hi[i], lo[i] = m.Sum128(stringBytes(k))
	}
}

// Scratch holds the hash-output buffers of one batch call. The zero value
// is ready to use; its buffers are allocated on first use. A caller that
// passes none to Batch64 or BatchString borrows one from scratchPool for
// the call, so no sketch keeps buffers between batches and steady-state
// batch ingest stays allocation-free.
type Scratch struct {
	hi, lo []uint64
}

// scratchPool lends a Scratch to each batch call made without one.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Buffers returns hash-output buffers of length n ≤ BatchSize, allocating
// the backing arrays on first call.
func (s *Scratch) Buffers(n int) (hi, lo []uint64) {
	if s.hi == nil {
		s.hi = make([]uint64, BatchSize)
		s.lo = make([]uint64, BatchSize)
	}
	return s.hi[:n], s.lo[:n]
}

// Batch64 hashes items through h in chunks of BatchSize into scr's buffers
// (a pooled Scratch's for the call if scr is nil) and hands each hashed
// chunk to sink, returning the summed sink results. Sketches use it to
// fuse a vectorized hash loop with their insert loop: sink is the
// sketch's batch-insert body, called once per chunk with the hot state in
// its own locals.
func Batch64(h Hasher, scr *Scratch, items []uint64, sink func(hi, lo []uint64) int) int {
	if scr == nil {
		scr = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(scr)
	}
	changed := 0
	for len(items) > 0 {
		n := len(items)
		if n > BatchSize {
			n = BatchSize
		}
		hi, lo := scr.Buffers(n)
		Sum128Uint64Batch(h, items[:n], hi, lo)
		changed += sink(hi, lo)
		items = items[n:]
	}
	return changed
}

// BatchString is Batch64 for string keys.
func BatchString(h Hasher, scr *Scratch, items []string, sink func(hi, lo []uint64) int) int {
	if scr == nil {
		scr = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(scr)
	}
	changed := 0
	for len(items) > 0 {
		n := len(items)
		if n > BatchSize {
			n = BatchSize
		}
		hi, lo := scr.Buffers(n)
		Sum128StringBatch(h, items[:n], hi, lo)
		changed += sink(hi, lo)
		items = items[n:]
	}
	return changed
}
