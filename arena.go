package sbitmap

import (
	"fmt"

	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

// Cold-path allocation. A keyed Store materializes one counter per
// distinct key (per sub-window, on a windowed store), so at millions of
// keys the per-key constructor cost and heap objects dominate cold ingest
// and the Store's heap. A slot table (slots.go) keeps an S-bitmap store's
// keys and sketches in pointer-free slots under one shared state, an
// hllSource builds every HyperLogLog a Store holds under one shared
// state, and scratchBulkAdder lets the Store lend one per-stripe hash
// scratch to every tiny sketch instead of each lazily allocating its own
// ~4 KiB.

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
