package sbitmap

// Sliding-window keyed counting: the per-key machinery behind the
// "/windowed(width=…,ring=…)" Spec modifier. A windowed Store
// materializes, per key, a windowRing — a fixed ring of sub-window
// sketches, each counting the records whose timestamps fall inside one
// width-sized interval of absolute time. Record timestamps are
// caller-supplied (never wall-clock), so replayed traces, WAL recovery,
// and twin stores fed the same records produce bit-identical state.
//
// Time is discretized into sub-window indices ("widx"): record ts lands
// in widx = floor(ts / width), and slot widx%ring holds that sub-window's
// sketch. A Store-global watermark (the highest widx any record has
// reached) defines "now": queries cover the half-open past from the
// watermark backwards, and records more than ring sub-windows behind it
// have lost their slot — they fold into the watermark window and are
// surfaced via the Store's late-record counter.
//
// A key holds only the sub-windows a query can still read. When its ring
// rotates into a new sub-window, every other slot at or behind the
// horizon (watermark − ring) is Reset and pushed onto a free list owned
// by the key's lock stripe, and a slot that needs a counter pops one from
// that list before allocating. So a key seen once an hour pins no expired
// sketches, sub-window counters are allocated only while the store grows,
// and steady-state rotation allocates nothing.
//
// Queries merge on demand. For Mergeable kinds (HLL, LogLog, FM,
// LinearCount, MRBitmap) EstimateWindow unions the covering
// sub-window sketches into a scratch counter borrowed from the stripe's
// free list. The paper's S-bitmap is deliberately not union-mergeable
// (see ErrNotMergeable), so windowed S-bitmap stores fall back to
// tumbling semantics: the estimate of the last *complete* sub-window,
// marked Tumbling in the result — exactly the paper's Section 7
// deployment, which reports per-link spreads "every minute interval".
// No estimate reads a released slot: the tumbling fallback reads
// watermark − 1, inside the horizon for any ring ≥ 2, and a one-slot ring
// never releases its only slot.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"
)

var (
	// ErrNotWindowed reports a window query against a Store whose Spec has
	// no windowed(...) modifier.
	ErrNotWindowed = errors.New("sbitmap: store is not windowed (spec has no windowed(...) modifier)")
	// ErrWindowSpan reports an EstimateWindow span that the retained
	// sub-windows cannot cover (non-positive, or beyond Spec.Retention).
	ErrWindowSpan = errors.New("sbitmap: window span")
)

// WindowWatermarkNone is the watermark WindowState reports before any
// record has been ingested into a windowed Store — callers compare
// against it to tell "no record yet" from a real sub-window index.
const WindowWatermarkNone = math.MinInt64

// wmNone marks a watermark (or ring slot) that has never seen a record.
const wmNone = WindowWatermarkNone

// windowShared is the per-Store window configuration every ring points
// at, so a ring costs one pointer beyond its slots.
type windowShared struct {
	width int64          // sub-window width in nanoseconds, > 0
	ring  int            // slots per key, ≥ 1
	src   *counterSource // builds and decodes sub-window counters of the base spec
	wm    *atomic.Int64  // the Store's watermark sub-window index
}

// now returns the watermark sub-window, or sub-window 0 before any
// record: where a record without a timestamp lands, and where queries
// end. Never the wall clock, so replaying the same records always
// rebuilds the same state.
func (w *windowShared) now() int64 {
	if wm := w.wm.Load(); wm != wmNone {
		return wm
	}
	return 0
}

// widthDur returns the sub-window width as a duration.
func (w *windowShared) widthDur() time.Duration { return time.Duration(w.width) }

// coveringWindows maps a query span onto the number of sub-windows that
// cover it: ceil(span/width), which must fit the ring. It is computed as
// (span−1)/width + 1, which cannot overflow for a positive span.
func (w *windowShared) coveringWindows(span time.Duration) (int, error) {
	if span <= 0 {
		return 0, fmt.Errorf("%w %s is not positive", ErrWindowSpan, span)
	}
	n := (int64(span)-1)/w.width + 1
	if n > int64(w.ring) {
		return 0, fmt.Errorf("%w %s exceeds the retention %s (windowed(width=%s,ring=%d))",
			ErrWindowSpan, span, time.Duration(w.width*int64(w.ring)), w.widthDur(), w.ring)
	}
	return int(n), nil
}

// take hands out an empty sub-window counter: the one last pushed onto
// free, when there is one (recycled reports it), else a new one. free is
// the free list of the stripe whose lock the caller holds, or nil.
func (w *windowShared) take(free *[]Counter) (c Counter, recycled bool) {
	if free == nil || len(*free) == 0 {
		return w.src.new(), false
	}
	n := len(*free) - 1
	c = (*free)[n]
	(*free)[n] = nil
	*free = (*free)[:n]
	return c, true
}

// give Resets a counter no ring holds any more and pushes it onto free;
// a nil free list drops it.
func (w *windowShared) give(c Counter, free *[]Counter) {
	if free != nil {
		c.Reset()
		*free = append(*free, c)
	}
}

// widxOf discretizes a unix-nanosecond timestamp into its sub-window
// index: floor division, so pre-epoch timestamps round down, not toward
// zero.
func widxOf(tsNanos, width int64) int64 {
	q := tsNanos / width
	if tsNanos < 0 && tsNanos%width != 0 {
		q--
	}
	return q
}

// ringSlot is one sub-window: the sketch plus the absolute sub-window
// index its contents belong to. c == nil while the slot is empty (never
// used, or released); widx == wmNone after a Reset.
type ringSlot struct {
	widx int64
	c    Counter
}

// windowRing is a key's sub-window ring. All mutation happens under the
// key's stripe lock (the Store's usual contract); sh.wm is atomic so
// estimate paths may read the watermark without it.
type windowRing struct {
	sh    *windowShared
	slots []ringSlot
}

func newWindowRing(sh *windowShared) *windowRing {
	return &windowRing{sh: sh, slots: make([]ringSlot, sh.ring)}
}

// slot rotates the ring to sub-window widx and returns its sketch. A
// rotation into a new sub-window first releases onto free every other
// slot at or behind the horizon (watermark − ring), which no query reads
// again; the slot's own older occupant is Reset in place, and an empty
// slot takes a counter from free, allocating only when free is empty.
// The caller holds the stripe lock that guards free and has clamped widx
// into the horizon (Store.resolveWidx), so an occupant with a different
// widx is always older.
func (r *windowRing) slot(widx int64, free *[]Counter) Counter {
	n := int64(len(r.slots))
	i := widx % n
	if i < 0 {
		i += n
	}
	sl := &r.slots[i]
	if sl.c != nil && sl.widx == widx {
		return sl.c
	}
	horizon := max(r.sh.wm.Load(), widx) - n
	for j := range r.slots {
		if o := &r.slots[j]; o != sl && o.c != nil && o.widx <= horizon {
			r.sh.give(o.c, free)
			*o = ringSlot{}
		}
	}
	if sl.c == nil {
		sl.c, _ = r.sh.take(free)
	} else {
		sl.c.Reset()
	}
	sl.widx = widx
	return sl.c
}

// cur returns the watermark sub-window's sketch (sub-window 0 before
// any record has carried a timestamp) — the target of the Counter
// interface's own Add methods, which reach no free list.
func (r *windowRing) cur() Counter { return r.slot(r.sh.now(), nil) }

// estimateRange estimates the union of the live sub-windows with widx in
// [lo, hi] and reports how many contributed: none estimate 0, one answers
// directly, more merge into a scratch counter — borrowed from free and
// handed back to it empty, or built and dropped when free has none.
func (r *windowRing) estimateRange(lo, hi int64, free *[]Counter) (est float64, n int, err error) {
	var single Counter
	for i := range r.slots {
		if sl := &r.slots[i]; sl.c != nil && sl.widx >= lo && sl.widx <= hi {
			n++
			single = sl.c
		}
	}
	switch n {
	case 0:
		return 0, 0, nil
	case 1:
		return single.Estimate(), 1, nil
	}
	dst, borrowed := r.sh.take(free)
	for i := range r.slots {
		if sl := &r.slots[i]; sl.c != nil && sl.widx >= lo && sl.widx <= hi {
			if err = Merge(dst, sl.c); err != nil {
				break
			}
		}
	}
	if err == nil {
		est = dst.Estimate()
	}
	if borrowed {
		r.sh.give(dst, free)
	}
	return est, n, err
}

// estimateWindow answers a window query given the Store watermark wm
// and the covering sub-window count n (both resolved by the Store):
// merge-on-query over (wm−n, wm] for mergeable kinds, the last complete
// sub-window (wm−1) for the tumbling fallback. Start/End are filled in
// by the Store; free is the stripe's free list, under its lock.
func (r *windowRing) estimateWindow(wm int64, n int, free *[]Counter) (WindowEstimate, error) {
	if !r.sh.src.mergeable {
		est, _, err := r.estimateRange(wm-1, wm-1, free)
		return WindowEstimate{Estimate: est, Windows: 1, Tumbling: true}, err
	}
	est, merged, err := r.estimateRange(wm-int64(n)+1, wm, free)
	return WindowEstimate{Estimate: est, Windows: merged}, err
}

// Add implements Counter: records without timestamps land in the
// watermark sub-window. The Store's ingest paths never call these — they
// rotate via slot directly — but the ring is a well-behaved Counter for
// code that reaches one through ForEach or a snapshot.
func (r *windowRing) Add(item []byte) bool       { return r.cur().Add(item) }
func (r *windowRing) AddUint64(item uint64) bool { return r.cur().AddUint64(item) }
func (r *windowRing) AddString(item string) bool { return r.cur().AddString(item) }

// Estimate implements Counter: the full-retention estimate — the union
// of every in-horizon sub-window for mergeable kinds, the last complete
// sub-window under the tumbling fallback. TopK on a windowed store
// therefore ranks keys by their current sliding-window spread.
func (r *windowRing) Estimate() float64 { return r.estimate(nil) }

// estimate is Estimate with the merge counter borrowed from free, the
// free list of the stripe whose lock the caller holds, or nil.
func (r *windowRing) estimate(free *[]Counter) float64 {
	we, _ := r.estimateWindow(r.sh.now(), len(r.slots), free)
	return we.Estimate
}

// estimateWith is c.Estimate() for a Store counter: a window ring
// borrows its merge counter from free, the free list of the stripe whose
// lock the caller holds.
func estimateWith(c Counter, free *[]Counter) float64 {
	if r, ok := c.(*windowRing); ok {
		return r.estimate(free)
	}
	return c.Estimate()
}

// SizeBits implements Counter: the summed summary bits of every
// materialized sub-window sketch.
func (r *windowRing) SizeBits() int {
	total := 0
	for i := range r.slots {
		if r.slots[i].c != nil {
			total += r.slots[i].c.SizeBits()
		}
	}
	return total
}

// Footprint implements Counter.
func (r *windowRing) Footprint() int {
	total := int(unsafe.Sizeof(*r)) + cap(r.slots)*int(unsafe.Sizeof(ringSlot{}))
	for i := range r.slots {
		if r.slots[i].c != nil {
			total += r.slots[i].c.Footprint()
		}
	}
	return total
}

// Reset implements Counter: every sub-window empties; allocated slot
// counters are kept until the next rotation releases them.
func (r *windowRing) Reset() {
	for i := range r.slots {
		if r.slots[i].c != nil {
			r.slots[i].c.Reset()
		}
		r.slots[i].widx = wmNone
	}
}

// Merge implements Mergeable by aligning sub-windows: same-widx slots
// union, a newer incoming sub-window replaces an older resident
// (Reset + absorb, in place), and an older incoming one is dropped —
// its data has expired relative to the destination ring. Merging is
// only reachable for mergeable base kinds (Store.Merge refuses
// otherwise).
func (r *windowRing) Merge(other Counter) error {
	o, ok := other.(*windowRing)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into a windowed ring", other)
	}
	if len(o.slots) != len(r.slots) {
		return fmt.Errorf("sbitmap: cannot merge ring of %d sub-windows into %d", len(o.slots), len(r.slots))
	}
	for i := range o.slots {
		os := &o.slots[i]
		if os.c == nil || os.widx == wmNone {
			continue
		}
		sl := &r.slots[i]
		switch {
		case sl.c == nil:
			sl.c = r.sh.src.new()
			sl.widx = os.widx
		case sl.widx == wmNone || sl.widx < os.widx:
			sl.c.Reset()
			sl.widx = os.widx
		case sl.widx > os.widx:
			continue
		}
		if err := Merge(sl.c, os.c); err != nil {
			return err
		}
	}
	return nil
}

// maxWidx returns the highest sub-window index the ring holds data for
// (wmNone when empty) — restore paths use it to re-derive the Store
// watermark from snapshot contents.
func (r *windowRing) maxWidx() int64 {
	maxW := int64(wmNone)
	for i := range r.slots {
		if r.slots[i].c != nil && r.slots[i].widx != wmNone && r.slots[i].widx > maxW {
			maxW = r.slots[i].widx
		}
	}
	return maxW
}

// Ring snapshot payload (envelope kind kindWindowRing):
//
//	[0:2]  ring size (little-endian uint16)
//	[2:4]  live sub-window count (little-endian uint16)
//	per live sub-window:
//	       int64 widx (8 bytes LE), blob length (uint32 LE), counter envelope
//
// The width does not appear — a ring blob is only meaningful inside a
// store container or stripe snapshot whose spec carries it.

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *windowRing) MarshalBinary() ([]byte, error) {
	payload := make([]byte, 4, 4+64*len(r.slots))
	binary.LittleEndian.PutUint16(payload, uint16(len(r.slots)))
	live := 0
	for i := range r.slots {
		sl := &r.slots[i]
		if sl.c == nil || sl.widx == wmNone {
			continue
		}
		blob, err := Marshal(sl.c)
		if err != nil {
			return nil, fmt.Errorf("sbitmap: ring sub-window %d: %w", sl.widx, err)
		}
		payload = binary.LittleEndian.AppendUint64(payload, uint64(sl.widx))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(blob)))
		payload = append(payload, blob...)
		live++
	}
	binary.LittleEndian.PutUint16(payload[2:], uint16(live))
	return appendEnvelope(kindWindowRing, payload), nil
}

// unmarshalWindowRing reconstructs a ring snapshot under a store's
// window configuration, decoding each sub-window through its source; the
// snapshot's ring size must match the spec's.
func unmarshalWindowRing(sh *windowShared, data []byte) (*windowRing, error) {
	payload, err := payloadOfKind(data, kindWindowRing)
	if err != nil {
		return nil, err
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: ring header", ErrTruncated)
	}
	ringSize := int(binary.LittleEndian.Uint16(payload))
	live := int(binary.LittleEndian.Uint16(payload[2:]))
	if ringSize != sh.ring {
		return nil, fmt.Errorf("sbitmap: ring snapshot has %d sub-windows, store is configured for %d", ringSize, sh.ring)
	}
	payload = payload[4:]
	r := newWindowRing(sh)
	for j := 0; j < live; j++ {
		if len(payload) < 12 {
			return nil, fmt.Errorf("%w: ring sub-window %d header", ErrTruncated, j)
		}
		widx := int64(binary.LittleEndian.Uint64(payload))
		blen := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[12:]
		if blen > len(payload) {
			return nil, fmt.Errorf("%w: ring sub-window %d", ErrTruncated, j)
		}
		if widx == wmNone {
			return nil, fmt.Errorf("sbitmap: ring snapshot sub-window %d has a reserved index", j)
		}
		c, err := sh.src.decode(payload[:blen])
		if err != nil {
			return nil, fmt.Errorf("sbitmap: ring sub-window %d: %w", widx, err)
		}
		i := widx % int64(ringSize)
		if i < 0 {
			i += int64(ringSize)
		}
		if r.slots[i].c != nil {
			return nil, fmt.Errorf("sbitmap: ring snapshot repeats slot %d (sub-windows %d and %d)", i, r.slots[i].widx, widx)
		}
		r.slots[i] = ringSlot{widx: widx, c: c}
		payload = payload[blen:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("sbitmap: %d trailing bytes after last ring sub-window", len(payload))
	}
	return r, nil
}
