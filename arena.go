package sbitmap

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

// Per-key construction. A keyed Store materializes one counter per
// distinct key (per sub-window, on a windowed store), so at millions of
// keys the per-key constructor cost and heap objects dominate cold ingest
// and the Store's heap. A Store resolves its spec once, into a
// counterSource that builds, decodes and measures every heap counter it
// holds and keeps the state its sketches share. Two kinds have a run
// view — a sketch whose whole state is a run of pointer-free words, bound
// to a handle per access: the S-bitmap (core.Shared.View) and
// HyperLogLog (hyperloglog.Shared.View). An unbounded store of either
// kind keeps no per-key heap object at all: its slot tables (slots.go)
// hold each key's sketch inline in its slot, or, windowed, each key's
// ring of run references, with every live sub-window one run in the
// stripe's run pool (windowring.go). Every other store keeps heap
// counters: a bounded one's evicted counter goes to OnEvict and must
// outlive its slot. scratchBulkAdder lets the Store lend one per-stripe
// hash scratch to every tiny sketch instead of each lazily allocating its
// own ~4 KiB.

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

	// sb is an sbitmap spec's state — its Config, hasher and resolution —
	// which the sketches of word tables share and every heap S-bitmap
	// copies (core.Sketch.Detach), so a heap counter's batch buffers are
	// its own; nil for other kinds.
	sb *core.Shared
	// hll is the state every HyperLogLog of an hll spec shares, so a heap
	// counter is one 32 B record plus its registers; nil for other kinds.
	hll *hyperloglog.Shared
}

// newCounterSource resolves base, proving it constructible by building
// one counter, so materializing a key cannot fail later.
func newCounterSource(base Spec) (*counterSource, error) {
	probe, err := base.New()
	if err != nil {
		return nil, err
	}
	// New computed these from the same spec, so they cannot fail here.
	opts, _ := base.options()
	o := buildOptions(opts)
	_, mergeable := probe.(Mergeable)
	src := &counterSource{spec: base, opts: opts, mergeable: mergeable}
	switch base.Kind {
	case KindHLL:
		b, _ := base.budget()
		src.hll = hyperloglog.NewShared(hyperloglog.KBitsForBudget(b), o.newHasher())
	case KindSBitmap:
		cfg, _ := base.sbitmapConfig()
		src.sb = core.NewShared(cfg, o.seed, core.WithResolution(o.dBits), core.WithHasher(o.newHasher()))
	}
	return src, nil
}

// runView reports whether the kind has a run view, so an unbounded
// store keeps its sketches in words (see newSlotTable).
func (src *counterSource) runView() bool { return src.sb != nil || src.hll != nil }

// new builds an empty heap counter, bit-identical to Spec.New's.
func (src *counterSource) new() Counter {
	switch {
	case src.hll != nil:
		c := new(HyperLogLog)
		src.hll.Init(&c.sk, make([]uint64, src.hll.RunWords()))
		return c
	case src.sb != nil:
		c := new(SBitmap)
		src.sb.Init(&c.sk, make([]uint64, src.sb.RunWords()))
		c.sk.Detach()
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

// copyOf returns a heap counter holding a copy of the sketch in run, a
// word table's: a counter that outlives the stripe lock it was read
// under.
func (src *counterSource) copyOf(run []uint64) Counter {
	if src.hll != nil {
		c := new(HyperLogLog)
		src.hll.View(&c.sk, slices.Clone(run[:src.hll.RunWords()]))
		return c
	}
	c := new(SBitmap)
	src.sb.View(&c.sk, slices.Clone(run[:src.sb.RunWords()]))
	c.sk.Detach()
	return c
}

// evicted returns c, a heap counter leaving the store for an OnEvict
// hook, with shared state of its own: the hook may feed it on any
// goroutine, and a HyperLogLog's batch path hashes through its Shared's
// buffers. (Heap S-bitmaps have their own from birth; a heap ring exposes
// no batch path.)
func (src *counterSource) evicted(c Counter) Counter {
	if h, ok := c.(*HyperLogLog); ok {
		h.sk.Detach()
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
	if err := src.hll.UnmarshalInto(&c.sk, make([]uint64, src.hll.RunWords()), payload); err != nil {
		return nil, fmt.Errorf("sbitmap: %w", err)
	}
	return c, nil
}

// footprint returns the bytes of the shared state, counted once for all
// the sketches that use it.
func (src *counterSource) footprint() int {
	total := 0
	if src.sb != nil {
		total += src.sb.Footprint()
	}
	if src.hll != nil {
		total += src.hll.Footprint()
	}
	return total
}

// runViews binds Counters over runs of words under a store's shared
// state: S-bitmaps under sb, or HyperLogLogs under hll. A table holds its
// own, bound to one run at a time under its stripe lock, so binding costs
// one predictable branch and no allocation.
type runViews struct {
	sb   *core.Shared
	hll  *hyperloglog.Shared
	sbv  SBitmap
	hllv HyperLogLog
}

// words returns the length of a run.
func (v *runViews) words() int {
	if v.sb != nil {
		return v.sb.RunWords()
	}
	return v.hll.RunWords()
}

// sizeBits returns one sketch's summary bits: an S-bitmap's m, or a
// HyperLogLog's 5 bits per register.
func (v *runViews) sizeBits() int {
	if v.sb != nil {
		return v.sb.Config().M()
	}
	return 8 * v.hll.RunWords() * hyperloglog.RegisterBits
}

// bind points the view at run's sketch and returns it.
func (v *runViews) bind(run []uint64) Counter {
	if v.sb != nil {
		v.sb.View(&v.sbv.sk, run)
		return &v.sbv
	}
	v.hll.View(&v.hllv.sk, run)
	return &v.hllv
}

// init makes run, whose words are zero, an empty sketch and returns the
// view bound to it.
func (v *runViews) init(run []uint64) Counter {
	if v.sb != nil {
		v.sb.Init(&v.sbv.sk, run)
		return &v.sbv
	}
	v.hll.Init(&v.hllv.sk, run)
	return &v.hllv
}

// unmarshalInto decodes a sketch blob (as Marshal writes it) straight
// into run. A store snapshot holds only sketches built from its own spec,
// so a blob of another kind or other parameters is a corrupt snapshot.
func (v *runViews) unmarshalInto(run []uint64, blob []byte) error {
	kind := KindHLL
	if v.sb != nil {
		kind = KindSBitmap
	}
	payload, err := payloadOfKind(blob, kind)
	if err != nil {
		return err
	}
	if v.sb != nil {
		err = v.sb.UnmarshalInto(&v.sbv.sk, run, payload)
	} else {
		err = v.hll.UnmarshalInto(&v.hllv.sk, run, payload)
	}
	if err != nil {
		return fmt.Errorf("sbitmap: %w", err)
	}
	return nil
}

// unbind drops the views' references, which would otherwise keep the
// chunk of the run they were last bound to.
func (v *runViews) unbind() { v.sbv, v.hllv = SBitmap{}, HyperLogLog{} }
