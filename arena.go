package sbitmap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

// Per-key construction. A keyed Store materializes one counter per
// distinct key (per sub-window, on a windowed store), so at millions of
// keys the per-key constructor cost and heap objects dominate cold ingest
// and the Store's heap. A Store resolves its spec once, into a
// counterSource that builds, decodes and measures every heap counter it
// holds and keeps the state its sketches share: an unbounded, unwindowed
// S-bitmap store's slot tables (slots.go) keep their sketches inline
// under one core.Shared, and an hll store builds every HyperLogLog under
// one hyperloglog.Shared. scratchBulkAdder lets the Store lend one
// per-stripe hash scratch to every tiny sketch instead of each lazily
// allocating its own ~4 KiB.

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

// counterSource is a Store's base spec — the spec minus the windowed
// modifier, the Spec of one per-key or sub-window counter — resolved
// once. Shared state is read-only to the Store's stripes, because the
// Store hashes every batch through stripe scratch (scratchBulkAdder),
// never through a Shared's own buffers.
type counterSource struct {
	spec      Spec
	opts      []Option // the spec's seed and hash options, which decoding restores
	mergeable bool     // the kind implements Mergeable

	// inline is the state of inline S-bitmap slot tables; nil when the
	// store keeps heap counters.
	inline *core.Shared
	// hll is the state every HyperLogLog of an hll spec is built under,
	// so a counter is one 32 B record plus its registers; nil for other
	// kinds.
	hll *hyperloglog.Shared
}

// newCounterSource resolves base, proving it constructible by building
// one counter, so materializing a key cannot fail later. inline asks for
// the shared state of inline slot tables, which only an S-bitmap spec
// has.
func newCounterSource(base Spec, inline bool) (*counterSource, error) {
	probe, err := base.New()
	if err != nil {
		return nil, err
	}
	// New computed these from the same spec, so they cannot fail here.
	opts, _ := base.options()
	o := buildOptions(opts)
	_, mergeable := probe.(Mergeable)
	src := &counterSource{spec: base, opts: opts, mergeable: mergeable}
	switch {
	case base.Kind == KindHLL:
		b, _ := base.budget()
		src.hll = hyperloglog.NewShared(hyperloglog.KBitsForBudget(b), o.newHasher())
	case base.Kind == KindSBitmap && inline:
		cfg, _ := base.sbitmapConfig()
		src.inline = core.NewShared(cfg, o.seed, core.WithResolution(o.dBits), core.WithHasher(o.newHasher()))
	}
	return src, nil
}

// new builds an empty heap counter, bit-identical to Spec.New's.
func (src *counterSource) new() Counter {
	if src.hll != nil {
		c := new(HyperLogLog)
		src.hll.Init(&c.sk)
		return c
	}
	c, err := src.spec.New()
	if err != nil {
		// newCounterSource built one; a deterministic constructor cannot
		// fail on the same input later.
		panic(fmt.Sprintf("sbitmap: store spec stopped constructing: %v", err))
	}
	return c
}

// decode restores a heap counter from its snapshot blob (as Marshal
// writes it) under the spec's seed and hash options. An hll spec's
// counters decode under the shared state, building no hasher; a Store
// snapshot holds only counters built from its own spec, so to them a blob
// of another kind or register count is a corrupt snapshot.
func (src *counterSource) decode(blob []byte) (Counter, error) {
	if src.hll == nil {
		return Unmarshal(blob, src.opts...)
	}
	payload, err := payloadOfKind(blob, KindHLL)
	if err != nil {
		return nil, err
	}
	c := new(HyperLogLog)
	if err := src.hll.UnmarshalInto(&c.sk, payload); err != nil {
		return nil, fmt.Errorf("sbitmap: %w", err)
	}
	return c, nil
}

// footprint returns the bytes of the shared state, counted once for all
// the sketches that use it.
func (src *counterSource) footprint() int {
	total := 0
	if src.inline != nil {
		total += src.inline.Footprint()
	}
	if src.hll != nil {
		total += src.hll.Footprint()
	}
	return total
}
