package sbitmap

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hyperloglog"
	"repro/internal/loglog"
	"repro/internal/uhash"
)

// Per-key construction. A keyed Store materializes one counter per
// distinct key (per sub-window, on a windowed store), so at millions of
// keys per-key heap objects would dominate cold ingest and the Store's
// heap. A Store resolves its spec once, into a counterSource that builds,
// decodes and copies out its counters and keeps the state they share:
// every counter it builds or decodes hashes through its one hasher. Three
// kinds have a run view — a sketch whose whole state is a run of
// pointer-free words, bound to a handle per access: the S-bitmap
// (core.Shared.View), and HyperLogLog and LogLog, which keep the same
// packed registers (hyperloglog.Shared.View). The kind alone decides a
// store's layout. A store of a run-view kind, bounded or not, keeps no
// per-key heap object: its slot tables (slots.go) hold each key's sketch
// inline in its slot, or, windowed, each key's ring of run references,
// with every live sub-window one run in the stripe's run pool
// (windowring.go). A key that leaves such a store for an OnEvict hook, or
// for another store's Merge, leaves as a heap copy. A store of any other
// kind keeps one heap counter per key, built by Spec.build. No counter
// keeps batch-hash buffers: a batch borrows them for the call
// (uhash.Batch64).

// counterSource is a Store's base spec — the spec minus the windowed
// modifier, the Spec of one per-key or sub-window counter — resolved
// once. Its shared state is read-only, so the Store's stripes, and the
// heap copies that leave them, share it on any goroutine.
type counterSource struct {
	spec      Spec
	h         uhash.Hasher // the spec's hasher, shared by every counter built or decoded
	dBits     uint         // an S-bitmap's sampling resolution
	mergeable bool         // the kind implements Mergeable
	empty     []byte       // an empty counter's snapshot, as Marshal writes it

	// runs is the run view of a run-view kind, whose sketches the slot
	// tables keep in words; nil for other kinds.
	runs runView
}

// newCounterSource resolves base, proving it constructible by building
// one counter, so materializing a key cannot fail later.
func newCounterSource(base Spec) (*counterSource, error) {
	opts, err := base.options()
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	h := o.newHasher()
	probe, err := base.build(h, o.dBits)
	if err != nil {
		return nil, err
	}
	empty, err := Marshal(probe)
	if err != nil {
		return nil, err
	}
	_, mergeable := probe.(Mergeable)
	src := &counterSource{spec: base, h: h, dBits: o.dBits, mergeable: mergeable, empty: empty}
	// build computed these from the same spec, so they cannot fail here.
	switch base.Kind {
	case KindSBitmap:
		cfg, _ := base.sbitmapConfig()
		src.runs = &sbRuns{sh: core.NewShared(cfg, o.seed, core.WithResolution(o.dBits), core.WithHasher(h))}
	case KindHLL:
		b, _ := base.budget()
		src.runs = &hllRuns{sh: hyperloglog.NewShared(hyperloglog.KBitsForBudget(b), h)}
	case KindLogLog:
		b, _ := base.budget()
		src.runs = &logLogRuns{sh: loglog.NewShared(loglog.KBitsForBudget(b), h)}
	}
	return src, nil
}

// new builds an empty heap counter under the source's hasher.
func (src *counterSource) new() Counter {
	c, err := src.spec.build(src.h, src.dBits)
	if err != nil {
		// newCounterSource built one; a deterministic constructor cannot
		// fail on the same input later.
		panic(fmt.Sprintf("sbitmap: store spec stopped constructing: %v", err))
	}
	return c
}

// decode restores a heap counter from its snapshot blob (as Marshal
// writes it) under the source's hasher. A Store snapshot holds only
// counters built from its own spec, so a blob of another kind
// (ErrKindMismatch) or configured otherwise — a second decoded copy,
// reset, marshals other than an empty counter of the spec — is a corrupt
// snapshot.
func (src *counterSource) decode(blob []byte) (Counter, error) {
	payload, err := payloadOfKind(blob, src.spec.Kind)
	if err != nil {
		return nil, err
	}
	c, err := decodeCounter(src.spec.Kind, payload, src.h)
	if err != nil {
		return nil, err
	}
	probe, _ := decodeCounter(src.spec.Kind, payload, src.h) // the bytes that just decoded
	probe.Reset()
	if b, err := Marshal(probe); err != nil || !bytes.Equal(b, src.empty) {
		return nil, fmt.Errorf("sbitmap: snapshot holds a %s counter configured otherwise than %s", src.spec.Kind, src.spec)
	}
	return c, nil
}

// footprint returns the bytes of a run view's shared state, counted once
// for all the sketches that use it.
func (src *counterSource) footprint() int {
	if src.runs == nil {
		return 0
	}
	return src.runs.footprint()
}

// runView is a run-view kind as a store's slot tables see it: the state
// its sketches share, and one view — a Counter bound to one run of words
// at a time, under the stripe lock, so binding allocates nothing. Each
// table holds its own (views).
type runView interface {
	words() int     // the length of a run
	sizeBits() int  // one sketch's summary bits
	footprint() int // the shared state's bytes
	size() int      // this view's own bytes, one object per table
	kind() Kind     // the envelope kind of the sketches' snapshots
	// views returns a runView over the same shared state with a view of
	// its own.
	views() runView
	// bind points the view at run's sketch and returns it.
	bind(run []uint64) Counter
	// init makes run, whose words are zero, an empty sketch.
	init(run []uint64)
	// unbind drops the view's reference to the run it was last bound to,
	// which would otherwise keep that run's chunk.
	unbind()
	// unmarshalInto decodes a sketch's envelope payload straight into
	// run; data that does not parse, or holds a sketch of other
	// parameters, is an error.
	unmarshalInto(run []uint64, payload []byte) error
	// copyOf returns a heap counter holding a copy of the sketch in run:
	// a counter that outlives the stripe lock it was read under. It
	// shares the read-only state, so it may be fed on any goroutine,
	// through its batch path too. The run is cloned through append, so
	// its capacity is its allocation's size class, which the copy's
	// Footprint counts.
	copyOf(run []uint64) Counter
}

// unmarshalRun decodes a sketch blob (as Marshal writes it) straight into
// run through v. A store snapshot holds only sketches built from its own
// spec, so a blob of another kind or other parameters is a corrupt
// snapshot.
func unmarshalRun(v runView, run []uint64, blob []byte) error {
	payload, err := payloadOfKind(blob, v.kind())
	if err != nil {
		return err
	}
	if err := v.unmarshalInto(run, payload); err != nil {
		return fmt.Errorf("sbitmap: %w", err)
	}
	return nil
}

// sbRuns is the S-bitmap's run view: the Config, hasher and resolution
// its sketches share.
type sbRuns struct {
	sh *core.Shared
	v  SBitmap
}

func (r *sbRuns) words() int                { return r.sh.RunWords() }
func (r *sbRuns) sizeBits() int             { return r.sh.Config().M() }
func (r *sbRuns) footprint() int            { return r.sh.Footprint() }
func (r *sbRuns) size() int                 { return int(unsafe.Sizeof(*r)) }
func (r *sbRuns) kind() Kind                { return KindSBitmap }
func (r *sbRuns) views() runView            { return &sbRuns{sh: r.sh} }
func (r *sbRuns) bind(run []uint64) Counter { r.sh.View(&r.v.sk, run); return &r.v }
func (r *sbRuns) init(run []uint64)         { r.sh.Init(&r.v.sk, run) }
func (r *sbRuns) unbind()                   { r.v = SBitmap{} }

func (r *sbRuns) unmarshalInto(run []uint64, payload []byte) error {
	return r.sh.UnmarshalInto(&r.v.sk, run, payload)
}

func (r *sbRuns) copyOf(run []uint64) Counter {
	c := new(SBitmap)
	r.sh.View(&c.sk, slices.Clone(run[:r.sh.RunWords()]))
	return c
}

// hllRuns is HyperLogLog's run view: the register count, α_m and hasher
// its sketches share, so a heap copy is one 32 B record plus its packed
// registers.
type hllRuns struct {
	sh *hyperloglog.Shared
	v  HyperLogLog
}

func (r *hllRuns) words() int                { return r.sh.RunWords() }
func (r *hllRuns) sizeBits() int             { return r.sh.SizeBits() }
func (r *hllRuns) footprint() int            { return r.sh.Footprint() }
func (r *hllRuns) size() int                 { return int(unsafe.Sizeof(*r)) }
func (r *hllRuns) kind() Kind                { return KindHLL }
func (r *hllRuns) views() runView            { return &hllRuns{sh: r.sh} }
func (r *hllRuns) bind(run []uint64) Counter { r.sh.View(&r.v.sk, run); return &r.v }
func (r *hllRuns) init(run []uint64)         { r.sh.Init(&r.v.sk, run) }
func (r *hllRuns) unbind()                   { r.v = HyperLogLog{} }

func (r *hllRuns) unmarshalInto(run []uint64, payload []byte) error {
	return r.sh.UnmarshalInto(&r.v.sk, run, payload)
}

func (r *hllRuns) copyOf(run []uint64) Counter {
	c := new(HyperLogLog)
	r.sh.View(&c.sk, slices.Clone(run[:r.sh.RunWords()]))
	return c
}

// logLogRuns is LogLog's run view: HyperLogLog's registers under a Shared
// that carries LogLog's estimator.
type logLogRuns struct {
	sh *hyperloglog.Shared
	v  LogLog
}

func (r *logLogRuns) words() int                { return r.sh.RunWords() }
func (r *logLogRuns) sizeBits() int             { return r.sh.SizeBits() }
func (r *logLogRuns) footprint() int            { return r.sh.Footprint() }
func (r *logLogRuns) size() int                 { return int(unsafe.Sizeof(*r)) }
func (r *logLogRuns) kind() Kind                { return KindLogLog }
func (r *logLogRuns) views() runView            { return &logLogRuns{sh: r.sh} }
func (r *logLogRuns) bind(run []uint64) Counter { r.sh.View(&r.v.sk, run); return &r.v }
func (r *logLogRuns) init(run []uint64)         { r.sh.Init(&r.v.sk, run) }
func (r *logLogRuns) unbind()                   { r.v = LogLog{} }

func (r *logLogRuns) unmarshalInto(run []uint64, payload []byte) error {
	return r.sh.UnmarshalInto(&r.v.sk, run, payload)
}

func (r *logLogRuns) copyOf(run []uint64) Counter {
	c := new(LogLog)
	r.sh.View(&c.sk, slices.Clone(run[:r.sh.RunWords()]))
	return c
}
