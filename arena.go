package sbitmap

import (
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

// Cold-path allocation. A keyed Store materializes one counter per
// distinct key (per sub-window, on a windowed store), so at millions of
// keys the per-key constructor cost and heap objects dominate cold ingest
// and the Store's heap. An sbitmapArena slabs per-key state for a Spec
// whose sketches are identically sized, an hllSource builds every
// HyperLogLog a Store holds under one shared state, and scratchBulkAdder
// lets the Store lend one per-stripe hash scratch to every tiny sketch
// instead of each lazily allocating its own ~4 KiB.

// scratchBulkAdder is the BulkAdder variant whose batch path hashes
// through caller-owned scratch instead of per-sketch buffers. The state
// after a call is bit-identical to the corresponding BulkAdder call.
type scratchBulkAdder interface {
	addBatch64Scratch(scr *uhash.Scratch, items []uint64) int
	addBatchStringScratch(scr *uhash.Scratch, items []string) int
}

func (s *SBitmap) addBatch64Scratch(scr *uhash.Scratch, items []uint64) int {
	return s.sk.AddBatch64Scratch(scr, items)
}

func (s *SBitmap) addBatchStringScratch(scr *uhash.Scratch, items []string) int {
	return s.sk.AddBatchStringScratch(scr, items)
}

func (c *HyperLogLog) addBatch64Scratch(scr *uhash.Scratch, items []uint64) int {
	return c.sk.AddBatch64Scratch(scr, items)
}

func (c *HyperLogLog) addBatchStringScratch(scr *uhash.Scratch, items []string) int {
	return c.sk.AddBatchStringScratch(scr, items)
}

// sbitmapArena materializes S-bitmaps for one Spec out of two slabs: a
// record slab of SBitmap values (each holding its core.Sketch record by
// value) and a word slab of bitmap words, under one core.Shared — the
// Config, hasher and resolution — for all of them. A counter is one record
// slot plus one run of words, so reaching a cold key's bitmap costs two
// dependent loads, and materializing one allocates nothing between chunks.
//
// An arena is not safe for concurrent use — the Store confines each to
// one lock stripe. Slots are never reclaimed: a counter dropped from the
// Store leaks its slot until the whole chunk is unreachable, which is why
// the Store only uses arenas when it is not evicting.
type sbitmapArena struct {
	sh *core.Shared

	// Free slots of the current chunk; a fresh chunk is allocated when
	// they run out. Chunks grow geometrically so a small store does not
	// pay for a big slab up front.
	recs  []SBitmap
	words []uint64 // sh.Words() per free slot
	chunk int
}

// Arena chunk growth bounds: the first chunk holds arenaChunkMin
// counters, each later chunk doubles, capped at arenaChunkMax. The cap
// bounds the allocated-but-unused slots per arena.
const (
	arenaChunkMin = 4
	arenaChunkMax = 256
)

// newArena returns a slab allocator producing counters bit-identical to
// Spec.New's, or nil for kinds without one (only the S-bitmap — the
// Store's headline per-key sketch — has an arena; other kinds fall back
// to Spec.New per key).
func (s Spec) newArena() (*sbitmapArena, error) {
	if s.Kind != KindSBitmap {
		return nil, nil
	}
	cfg, err := s.sbitmapConfig()
	if err != nil {
		return nil, err
	}
	opts, err := s.options()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	sh := core.NewShared(cfg, o.seed, core.WithResolution(o.dBits), core.WithHasher(o.newHasher()))
	return &sbitmapArena{sh: sh}, nil
}

// slot hands out the next free record and its words, allocating a chunk
// when the current one is spent.
func (a *sbitmapArena) slot() (*SBitmap, []uint64) {
	n := a.sh.Words()
	if len(a.recs) == 0 {
		a.chunk = min(max(2*a.chunk, arenaChunkMin), arenaChunkMax)
		a.recs = make([]SBitmap, a.chunk)
		a.words = make([]uint64, a.chunk*n)
	}
	r, w := &a.recs[0], a.words[:n]
	a.recs, a.words = a.recs[1:], a.words[n:]
	return r, w
}

// next materializes an empty counter.
func (a *sbitmapArena) next() Counter {
	r, w := a.slot()
	a.sh.Init(&r.sk, w)
	return r
}

// restore decodes a counter snapshot (as Marshal writes it) straight into
// the next slot, building no Config and no hasher. A Store snapshot holds
// only counters built from its own spec, so a blob of another kind or
// other parameters is a corrupt snapshot.
func (a *sbitmapArena) restore(blob []byte) (Counter, error) {
	payload, err := payloadOfKind(blob, KindSBitmap)
	if err != nil {
		return nil, err
	}
	r, w := a.slot()
	if err := a.sh.UnmarshalInto(&r.sk, w, payload); err != nil {
		return nil, fmt.Errorf("sbitmap: %w", err)
	}
	return r, nil
}

// footprint returns the arena's own resident bytes: the struct and the
// Shared its counters point to. Their records and words are counted by
// each counter's Footprint.
func (a *sbitmapArena) footprint() int { return int(unsafe.Sizeof(*a)) + a.sh.Footprint() }

// hllSource builds HyperLogLogs for one Spec under one hyperloglog.Shared —
// the register count, α and hasher — so a counter is one 32 B record plus
// its registers. A Store keeps one for all its stripes: the Shared is
// read-only to them, because the Store hashes every batch through stripe
// scratch (scratchBulkAdder), never through the Shared's own buffers.
// There is no slab: a windowed Store recycles sub-window counters through
// its stripes' free lists instead, so it allocates them only while it
// grows.
type hllSource struct{ sh *hyperloglog.Shared }

// newHLLSource returns the HyperLogLog source of Spec s, building
// counters bit-identical to Spec.New's, or nil for other kinds.
func (s Spec) newHLLSource() (*hllSource, error) {
	if s.Kind != KindHLL {
		return nil, nil
	}
	b, err := s.budget()
	if err != nil {
		return nil, err
	}
	opts, err := s.options()
	if err != nil {
		return nil, err
	}
	h := buildOptions(opts).newHasher()
	return &hllSource{sh: hyperloglog.NewShared(hyperloglog.KBitsForBudget(b), h)}, nil
}

// next materializes an empty counter.
func (a *hllSource) next() Counter {
	c := new(HyperLogLog)
	a.sh.Init(&c.sk)
	return c
}

// restore decodes a counter snapshot (as Marshal writes it) under the
// source's shared state, building no hasher. A Store snapshot holds only
// counters built from its own spec, so a blob of another kind or register
// count is a corrupt snapshot.
func (a *hllSource) restore(blob []byte) (Counter, error) {
	payload, err := payloadOfKind(blob, KindHLL)
	if err != nil {
		return nil, err
	}
	c := new(HyperLogLog)
	if err := a.sh.UnmarshalInto(&c.sk, payload); err != nil {
		return nil, fmt.Errorf("sbitmap: %w", err)
	}
	return c, nil
}
