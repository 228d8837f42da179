package sbitmap

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/hyperloglog"
)

// Per-key construction. A keyed Store materializes one counter per
// distinct key (per sub-window, on a windowed store), so at millions of
// keys per-key heap objects would dominate cold ingest and the Store's
// heap. A Store resolves its spec once, into a counterSource that builds,
// decodes and copies out its counters and keeps the state its sketches
// share. Two kinds have a run view — a sketch whose whole state is a run
// of pointer-free words, bound to a handle per access: the S-bitmap
// (core.Shared.View) and HyperLogLog (hyperloglog.Shared.View). The kind
// alone decides a store's layout. A store of either kind, bounded or not,
// keeps no per-key heap object: its slot tables (slots.go) hold each
// key's sketch inline in its slot, or, windowed, each key's ring of run
// references, with every live sub-window one run in the stripe's run pool
// (windowring.go). A key that leaves such a store for an OnEvict hook, or
// for another store's Merge, leaves as a heap copy. A store of any other
// kind keeps one heap counter per key, built by Spec.New. No counter keeps
// batch-hash buffers: a batch borrows them for the call (uhash.Batch64).

// counterSource is a Store's base spec — the spec minus the windowed
// modifier, the Spec of one per-key or sub-window counter — resolved
// once. Its shared state is read-only, so the Store's stripes, and the
// heap copies that leave them, share it on any goroutine.
type counterSource struct {
	spec      Spec
	opts      []Option // the spec's seed and hash options, which decoding restores
	mergeable bool     // the kind implements Mergeable
	empty     []byte   // an empty counter's snapshot, as Marshal writes it

	// sb is an sbitmap spec's state — its Config, hasher and resolution —
	// which the sketches of word tables share; nil for other kinds.
	sb *core.Shared
	// hll is the state every HyperLogLog of an hll spec shares, so a heap
	// copy is one 32 B record plus its registers; nil for other kinds.
	hll *hyperloglog.Shared
}

// newCounterSource resolves base, proving it constructible by building
// one counter, so materializing a key cannot fail later.
func newCounterSource(base Spec) (*counterSource, error) {
	probe, err := base.New()
	if err != nil {
		return nil, err
	}
	empty, err := Marshal(probe)
	if err != nil {
		return nil, err
	}
	// New computed these from the same spec, so they cannot fail here.
	opts, _ := base.options()
	o := buildOptions(opts)
	_, mergeable := probe.(Mergeable)
	src := &counterSource{spec: base, opts: opts, mergeable: mergeable, empty: empty}
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

// runView reports whether the kind has a run view, so a store keeps its
// sketches in words (see newSlotTable).
func (src *counterSource) runView() bool { return src.sb != nil || src.hll != nil }

// new builds an empty heap counter: Spec.New's.
func (src *counterSource) new() Counter {
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
// under. It shares the store's read-only state, so it may be fed on any
// goroutine, through its batch path too.
func (src *counterSource) copyOf(run []uint64) Counter {
	if src.hll != nil {
		// Cloned through append, so the run's capacity is its allocation's
		// size class, which the copy's Footprint counts.
		c := new(HyperLogLog)
		src.hll.View(&c.sk, slices.Clone(run[:src.hll.RunWords()]))
		return c
	}
	c := new(SBitmap)
	src.sb.View(&c.sk, slices.Clone(run[:src.sb.RunWords()]))
	return c
}

// decode restores a heap counter from its snapshot blob (as Marshal
// writes it) under the spec's seed and hash options. A Store snapshot
// holds only counters built from its own spec, so a blob of another kind
// (ErrKindMismatch) or configured otherwise — a second decoded copy,
// reset, marshals other than an empty counter of the spec — is a corrupt
// snapshot.
func (src *counterSource) decode(blob []byte) (Counter, error) {
	if _, err := payloadOfKind(blob, src.spec.Kind); err != nil {
		return nil, err
	}
	c, err := Unmarshal(blob, src.opts...)
	if err != nil {
		return nil, err
	}
	probe, _ := Unmarshal(blob, src.opts...) // the bytes that just decoded
	probe.Reset()
	if b, err := Marshal(probe); err != nil || !bytes.Equal(b, src.empty) {
		return nil, fmt.Errorf("sbitmap: snapshot holds a %s counter configured otherwise than %s", src.spec.Kind, src.spec)
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
	return v.hll.SizeBits()
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
