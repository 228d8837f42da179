package sbitmap

// Sliding-window keyed counting: the per-key machinery behind the
// "/windowed(width=…,ring=…)" Spec modifier. A windowed Store keeps, per
// key, a ring of sub-window sketches, each counting the records whose
// timestamps fall inside one width-sized interval of absolute time.
// Record timestamps are caller-supplied (never wall-clock), so replayed
// traces, WAL recovery, and twin stores fed the same records produce
// bit-identical state.
//
// Time is discretized into sub-window indices ("widx"): record ts lands
// in widx = floor(ts / width), and ring entry widx%ring holds that
// sub-window's sketch. A Store-global watermark (the highest widx any
// record has reached) defines "now": queries cover the half-open past
// from the watermark backwards, and records more than ring sub-windows
// behind it have lost their entry — they fold into the watermark window
// and are surfaced via the Store's late-record counter.
//
// A ring has two layouts, and the base kind alone picks one. A store whose
// kind has a run view (the S-bitmap, HyperLogLog and LogLog; see
// counterSource), bounded or not, keeps run rings: the key's slot holds
// one uint32 reference per sub-window, and each live sub-window is one run
// of pointer-free words in its stripe's run pool (runRings) — no heap object
// per key or per sub-window. A kind without a run view keeps one heap
// windowRing per key, holding one heap counter per live sub-window; a run
// ring leaving its store, for an OnEvict hook or a Merge, leaves as a
// heap windowRing of copies (runRings.copyOf). Both answer through one
// implementation of each ring rule, over the ringEntries interface:
// rotation (windowShared.rotate), the covering-span selection
// (estimateRange), the alignment rule of a merge (mergeRings) and the
// snapshot payload codec (marshalRing, unmarshalRing).
//
// A key holds only the sub-windows a query can still read. When its ring
// rotates into a new sub-window, every other entry at or behind the
// horizon (watermark − ring) is released: a run goes back to its pool,
// whose last run moves into the hole, and the pool's chunks shrink as
// runs leave, so rotation, Remove and Reset give memory back; a heap
// counter goes to the GC. So a key seen once an hour pins no expired
// sketches, and a warm run ring rotates without allocating.
//
// Queries merge on demand. For Mergeable kinds (HLL, LogLog, FM,
// LinearCount, MRBitmap) EstimateWindow unions the covering sub-window
// sketches into a scratch counter: one per table for run rings, a pooled
// counter of the store's (windowShared.scratch) for heap rings, so a warm
// query allocates nothing. The paper's S-bitmap is deliberately not
// union-mergeable (see ErrNotMergeable), so windowed
// S-bitmap stores fall back to tumbling semantics: the estimate of the
// last *complete* sub-window, marked Tumbling in the result — exactly the
// paper's Section 7 deployment, which reports per-link spreads "every
// minute interval". No estimate reads a released entry: the tumbling
// fallback reads watermark − 1, inside the horizon for any ring ≥ 2, and
// a one-entry ring never releases its only entry.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
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

// wmNone marks a watermark that has never seen a record.
const wmNone = WindowWatermarkNone

// windowShared is the per-Store window configuration every ring points
// at, so a heap ring costs one pointer beyond its entries.
type windowShared struct {
	width int64          // sub-window width in nanoseconds, > 0
	ring  int            // entries per key, ≥ 1
	src   *counterSource // builds and decodes sub-window counters of the base spec
	wm    *atomic.Int64  // the Store's watermark sub-window index

	// scratch holds the counters heap rings' queries union sub-windows
	// into, reset before use. A heap ring may have left the store, so its
	// queries run under no stripe lock; the pool serves them on any
	// goroutine.
	scratch sync.Pool
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

// ringEntries is a key's sub-window ring as the ring rules see it: entry
// i, empty or live, holds a sub-window whose index is i modulo the ring
// size. A run ring's sketches are views, each valid until the ring's next
// call.
type ringEntries interface {
	Counter
	size() int
	// entry reports entry i's sub-window index, if the entry is live.
	entry(i int) (widx int64, live bool)
	// sketch returns live entry i's sketch.
	sketch(i int) Counter
	// release empties live entry i, giving its sketch's memory back.
	release(i int)
	// claim makes entry i an empty sketch of sub-window widx — its own
	// reset in place, or a new one — and returns it.
	claim(i int, widx int64) Counter
	// restore makes empty entry i sub-window widx's sketch, decoded from
	// its snapshot blob.
	restore(i int, widx int64, blob []byte) error
	// scratch returns an empty counter a query may union entries into;
	// putScratch takes it back once the query has read it.
	scratch() Counter
	putScratch(c Counter)
}

// rotate rotates ring r to sub-window widx and returns its sketch. A
// rotation into a new sub-window first releases every other live entry
// at or behind the horizon (watermark − ring), which no query reads
// again; the entry's own older occupant is then reset in place, and an
// empty entry takes a new sketch. The caller holds the stripe lock and
// has clamped widx into the horizon (Store.resolveWidx), so an occupant
// with a different widx is always older.
func (w *windowShared) rotate(r ringEntries, widx int64) Counter {
	n := int64(r.size())
	i := widx % n
	if i < 0 {
		i += n
	}
	if cur, live := r.entry(int(i)); live && cur == widx {
		return r.sketch(int(i))
	}
	horizon := max(w.wm.Load(), widx) - n
	for j := range r.size() {
		if old, live := r.entry(j); live && j != int(i) && old <= horizon {
			r.release(j)
		}
	}
	return r.claim(int(i), widx)
}

// cur returns the watermark sub-window's sketch (sub-window 0 before any
// record has carried a timestamp) — the target of a ring's own Add
// methods.
func (w *windowShared) cur(r ringEntries) Counter { return w.rotate(r, w.now()) }

// estimateRange estimates the union of r's live sub-windows with widx in
// [lo, hi] and reports how many contributed: none estimate 0, one answers
// directly, more merge into r's scratch counter.
func estimateRange(r ringEntries, lo, hi int64) (est float64, n int, err error) {
	single := 0
	for i := range r.size() {
		if widx, live := r.entry(i); live && widx >= lo && widx <= hi {
			n++
			single = i
		}
	}
	switch n {
	case 0:
		return 0, 0, nil
	case 1:
		return r.sketch(single).Estimate(), 1, nil
	}
	dst := r.scratch()
	defer r.putScratch(dst)
	for i := range r.size() {
		if widx, live := r.entry(i); live && widx >= lo && widx <= hi {
			if err = Merge(dst, r.sketch(i)); err != nil {
				return 0, n, err
			}
		}
	}
	return dst.Estimate(), n, nil
}

// WindowCounter is implemented by the counters a windowed Store hands out
// for its keys — to ForEach, ForEachDirty and an OnEvict hook: a key's
// ring of sub-window sketches. EstimateWindow answers Store.EstimateWindow
// for that key from the counter in hand, at the Store's current
// watermark, so a scanner reads each key's sliding-window estimate inside
// its callback without looking the key up again. Its errors are
// Store.EstimateWindow's span errors (ErrWindowSpan).
type WindowCounter interface {
	EstimateWindow(span time.Duration) (WindowEstimate, error)
}

var (
	_ WindowCounter = (*windowRing)(nil)
	_ WindowCounter = (*runRing)(nil)
)

// estimateSpan answers a window query of span over ring r, or over a key
// the store does not hold when r is nil (estimate 0): the covering
// sub-windows end at the watermark and are unioned on query for mergeable
// kinds, while the tumbling fallback reads the last complete sub-window
// whatever the span. Store.EstimateWindow and both ring layouts'
// EstimateWindow answer through it.
func (w *windowShared) estimateSpan(r ringEntries, span time.Duration) (WindowEstimate, error) {
	n, err := w.coveringWindows(span)
	if err != nil {
		return WindowEstimate{}, err
	}
	hi := w.now()
	lo := hi - int64(n) + 1
	we := WindowEstimate{Tumbling: !w.src.mergeable}
	if we.Tumbling {
		lo, hi = hi-1, hi-1
	}
	if r != nil {
		if we.Estimate, we.Windows, err = estimateRange(r, lo, hi); err != nil {
			return WindowEstimate{}, err
		}
	}
	if we.Tumbling {
		we.Windows = 1
	}
	we.Start = time.Unix(0, lo*w.width)
	we.End = time.Unix(0, (hi+1)*w.width)
	return we, nil
}

// estimate is a ring's Estimate: the window estimate over the full
// retention — the union of every in-horizon sub-window for mergeable
// kinds, the last complete sub-window under the tumbling fallback. TopK
// on a windowed store therefore ranks keys by their current
// sliding-window spread.
func (w *windowShared) estimate(r ringEntries) float64 {
	we, _ := w.estimateSpan(r, time.Duration(w.width*int64(w.ring)))
	return we.Estimate
}

// ringSizeBits is a ring's SizeBits: the summed summary bits of its live
// sub-window sketches.
func ringSizeBits(r ringEntries) int {
	total := 0
	for i := range r.size() {
		if _, live := r.entry(i); live {
			total += r.sketch(i).SizeBits()
		}
	}
	return total
}

// mergeRings is a ring's Merge: it folds ring other into dst by aligning
// sub-windows — same-widx entries union, a newer incoming sub-window
// replaces an older resident (reset in place, then absorbed), and an
// older incoming one is dropped, its data expired relative to dst.
// Merging is only reachable for mergeable base kinds (Store.Merge refuses
// otherwise).
func mergeRings(dst ringEntries, other Counter) error {
	src, ok := other.(ringEntries)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into a windowed ring", other)
	}
	if src.size() != dst.size() {
		return fmt.Errorf("sbitmap: cannot merge ring of %d sub-windows into %d", src.size(), dst.size())
	}
	for i := range src.size() {
		widx, live := src.entry(i)
		if !live {
			continue
		}
		var c Counter
		switch cur, ok := dst.entry(i); {
		case !ok || cur < widx:
			c = dst.claim(i, widx)
		case cur > widx:
			continue
		default:
			c = dst.sketch(i)
		}
		if err := Merge(c, src.sketch(i)); err != nil {
			return err
		}
	}
	return nil
}

// maxWidx returns the highest sub-window index r holds data for (wmNone
// when empty) — restore paths use it to re-derive the Store watermark
// from snapshot contents.
func maxWidx(r ringEntries) int64 {
	maxW := int64(wmNone)
	for i := range r.size() {
		if widx, live := r.entry(i); live && widx > maxW {
			maxW = widx
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
// store container or stripe snapshot whose spec carries it. Both counts
// fit their 16 bits because a ring has at most maxWindowRing entries.

// marshalRing is a ring's MarshalBinary.
func marshalRing(r ringEntries) ([]byte, error) {
	payload := make([]byte, 4, 4+64*r.size())
	binary.LittleEndian.PutUint16(payload, uint16(r.size()))
	live := 0
	for i := range r.size() {
		widx, ok := r.entry(i)
		if !ok {
			continue
		}
		blob, err := Marshal(r.sketch(i))
		if err != nil {
			return nil, fmt.Errorf("sbitmap: ring sub-window %d: %w", widx, err)
		}
		payload = binary.LittleEndian.AppendUint64(payload, uint64(widx))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(blob)))
		payload = append(payload, blob...)
		live++
	}
	binary.LittleEndian.PutUint16(payload[2:], uint16(live))
	return appendEnvelope(kindWindowRing, payload), nil
}

// unmarshalRing decodes a ring snapshot into r, an empty ring of a
// store's window configuration, restoring each sub-window into its
// entry; the snapshot's ring size must match the spec's. On error r may
// hold some of the sub-windows.
func unmarshalRing(r ringEntries, data []byte) error {
	payload, err := payloadOfKind(data, kindWindowRing)
	if err != nil {
		return err
	}
	if len(payload) < 4 {
		return fmt.Errorf("%w: ring header", ErrTruncated)
	}
	ringSize := int(binary.LittleEndian.Uint16(payload))
	live := int(binary.LittleEndian.Uint16(payload[2:]))
	if ringSize != r.size() {
		return fmt.Errorf("sbitmap: ring snapshot has %d sub-windows, store is configured for %d", ringSize, r.size())
	}
	payload = payload[4:]
	for j := 0; j < live; j++ {
		if len(payload) < 12 {
			return fmt.Errorf("%w: ring sub-window %d header", ErrTruncated, j)
		}
		widx := int64(binary.LittleEndian.Uint64(payload))
		blen := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[12:]
		if blen > len(payload) {
			return fmt.Errorf("%w: ring sub-window %d", ErrTruncated, j)
		}
		if widx == wmNone {
			return fmt.Errorf("sbitmap: ring snapshot sub-window %d has a reserved index", j)
		}
		i := widx % int64(ringSize)
		if i < 0 {
			i += int64(ringSize)
		}
		if prev, live := r.entry(int(i)); live {
			return fmt.Errorf("sbitmap: ring snapshot repeats slot %d (sub-windows %d and %d)", i, prev, widx)
		}
		if err := r.restore(int(i), widx, payload[:blen]); err != nil {
			return fmt.Errorf("sbitmap: ring sub-window %d: %w", widx, err)
		}
		payload = payload[blen:]
	}
	if len(payload) != 0 {
		return fmt.Errorf("sbitmap: %d trailing bytes after last ring sub-window", len(payload))
	}
	return nil
}

// ringSlot is one entry of a heap ring: the sketch plus the absolute
// sub-window index its contents belong to; c == nil while the entry is
// empty (never used, or released).
type ringSlot struct {
	widx int64
	c    Counter
}

// windowRing is a key's heap ring: the layout of kinds without a run
// view, and the copy a run ring leaves its store as. All mutation happens
// under the key's stripe lock (the Store's usual contract); sh.wm is
// atomic so estimate paths may read the watermark without it.
type windowRing struct {
	sh    *windowShared
	slots []ringSlot
}

func newWindowRing(sh *windowShared) *windowRing {
	return &windowRing{sh: sh, slots: make([]ringSlot, sh.ring)}
}

func (r *windowRing) size() int                      { return len(r.slots) }
func (r *windowRing) entry(i int) (int64, bool)      { return r.slots[i].widx, r.slots[i].c != nil }
func (r *windowRing) sketch(i int) Counter           { return r.slots[i].c }
func (r *windowRing) release(i int)                  { r.slots[i] = ringSlot{} }
func (r *windowRing) putScratch(c Counter)           { r.sh.scratch.Put(c) }
func (r *windowRing) Add(item []byte) bool           { return r.sh.cur(r).Add(item) }
func (r *windowRing) AddUint64(item uint64) bool     { return r.sh.cur(r).AddUint64(item) }
func (r *windowRing) AddString(item string) bool     { return r.sh.cur(r).AddString(item) }
func (r *windowRing) Estimate() float64              { return r.sh.estimate(r) }
func (r *windowRing) SizeBits() int                  { return ringSizeBits(r) }
func (r *windowRing) Reset()                         { clear(r.slots) }
func (r *windowRing) Merge(other Counter) error      { return mergeRings(r, other) }
func (r *windowRing) MarshalBinary() ([]byte, error) { return marshalRing(r) }

// EstimateWindow implements WindowCounter.
func (r *windowRing) EstimateWindow(span time.Duration) (WindowEstimate, error) {
	return r.sh.estimateSpan(r, span)
}

func (r *windowRing) scratch() Counter {
	if c, ok := r.sh.scratch.Get().(Counter); ok {
		c.Reset()
		return c
	}
	return r.sh.src.new()
}

func (r *windowRing) claim(i int, widx int64) Counter {
	sl := &r.slots[i]
	if sl.c == nil {
		sl.c = r.sh.src.new()
	} else {
		sl.c.Reset()
	}
	sl.widx = widx
	return sl.c
}

func (r *windowRing) restore(i int, widx int64, blob []byte) error {
	c, err := r.sh.src.decode(blob)
	if err != nil {
		return err
	}
	r.slots[i] = ringSlot{widx: widx, c: c}
	return nil
}

// Footprint implements Counter: the ring, its entries and every live
// sub-window sketch.
func (r *windowRing) Footprint() int {
	total := int(unsafe.Sizeof(*r)) + cap(r.slots)*int(unsafe.Sizeof(ringSlot{}))
	for i := range r.slots {
		if r.slots[i].c != nil {
			total += r.slots[i].c.Footprint()
		}
	}
	return total
}

// Run pool layout: a run is runHdr header words, then the sketch's run of
// words.
const (
	runWidx  = iota // the sub-window index
	runOwner        // the owner: slot number in the low 32 bits, ring entry in the high 32
	runHdr
)

// runChunkBits sizes a full run-pool chunk: 256 runs. A stripe's last
// chunk is partly empty, so smaller chunks waste less: modelled over the
// per-stripe counts of a windowed hll:mbits=512 store with 1.7 live
// sub-windows per key, 1,024-run chunks cost about 27 B more per key.
const runChunkBits = 8

// runRings is a windowed word table's ring machinery: the run pool, where
// every live sub-window of the stripe's keys is one run, dense like the
// slots — releasing a run moves the pool's last run into the hole and
// rewrites the one reference that named it, found through the moved run's
// owner word — the ring view, bound to one slot at a time, and the
// scratch counter merge-on-query unions into.
type runRings struct {
	win   *windowShared
	slots *wordChunks // the table's slots, which hold the references
	hdr   int         // slot words before the references
	v     runView     // the table's, which sketches bind through
	pool  wordChunks
	runs  int // live runs, in [0, runs)

	scratch Counter // built by the first query that merges
	ring    runRing
}

func newRunRings(win *windowShared, slots *wordChunks, v runView, hdr int) *runRings {
	p := &runRings{win: win, slots: slots, hdr: hdr, v: v}
	p.pool = wordChunks{stride: runHdr + v.words(), bits: runChunkBits}
	p.ring.p = p
	return p
}

// run returns run j's words.
func (p *runRings) run(j uint32) []uint64 { return p.pool.at(j) }

// refs returns slot i's ring references.
func (p *runRings) refs(i uint32) []uint32 {
	sl := p.slots.at(i)
	return unsafe.Slice((*uint32)(unsafe.Pointer(&sl[p.hdr])), p.win.ring)
}

// bind points the ring view at slot i's ring and returns it.
func (p *runRings) bind(i uint32) *runRing {
	p.ring.slot, p.ring.refs = i, p.refs(i)
	return &p.ring
}

// push appends a zeroed run owned by entry pos of slot i's ring and
// returns its number.
func (p *runRings) push(i uint32, pos int) uint32 {
	j := uint32(p.runs)
	p.pool.push(j)[runOwner] = uint64(i) | uint64(pos)<<32
	p.runs++
	return j
}

// release drops run j, no longer referenced: the last run moves into its
// place, and the reference naming the last run follows it. The pool's
// chunks shrink at the next settle, so a rotation that releases a run and
// takes one never reallocates a chunk.
func (p *runRings) release(j uint32) {
	p.runs--
	last := uint32(p.runs)
	if j == last {
		return
	}
	moved := p.run(last)
	copy(p.run(j), moved)
	owner := moved[runOwner]
	p.refs(uint32(owner))[owner>>32] = j + 1
}

// settle gives back the pool memory released runs held.
func (p *runRings) settle() {
	if p.pool.shrink(p.runs) {
		p.v.unbind() // a view may still be bound to a run of the old chunk
	}
}

// releaseAll releases every run of slot i's ring.
func (p *runRings) releaseAll(i uint32) {
	refs := p.refs(i)
	for pos, ref := range refs {
		if ref != 0 {
			refs[pos] = 0
			p.release(ref - 1)
		}
	}
	p.settle()
}

// reown records slot i, into which Remove moved a slot, as the owner of
// its ring's runs.
func (p *runRings) reown(i uint32) {
	for pos, ref := range p.refs(i) {
		if ref != 0 {
			p.run(ref - 1)[runOwner] = uint64(i) | uint64(pos)<<32
		}
	}
}

// copyOf returns a heap ring holding a copy of slot i's ring.
func (p *runRings) copyOf(i uint32) *windowRing {
	r := newWindowRing(p.win)
	for pos, ref := range p.refs(i) {
		if ref != 0 {
			run := p.run(ref - 1)
			r.slots[pos] = ringSlot{widx: int64(run[runWidx]), c: p.v.copyOf(run[runHdr:])}
		}
	}
	return r
}

// reset drops every run.
func (p *runRings) reset() {
	p.pool = wordChunks{stride: p.pool.stride, bits: p.pool.bits}
	p.runs, p.scratch = 0, nil
	p.ring.refs = nil
}

// footprint returns the machinery's resident bytes: the struct, the pool
// and the scratch counter.
func (p *runRings) footprint() int {
	n := int(unsafe.Sizeof(*p)) + p.pool.footprint()
	if p.scratch != nil {
		n += p.scratch.Footprint()
	}
	return n
}

// runRing is the Counter face of one key's ring of sub-window runs: its
// table's ring view, bound to a slot at a time under the stripe lock and
// valid until the table's next call.
type runRing struct {
	p    *runRings
	slot uint32
	refs []uint32 // the slot's references; 0 = empty, else run number + 1
}

func (r *runRing) size() int                      { return len(r.refs) }
func (r *runRing) putScratch(Counter)             {}
func (r *runRing) sketch(i int) Counter           { return r.p.v.bind(r.p.run(r.refs[i] - 1)[runHdr:]) }
func (r *runRing) Add(item []byte) bool           { return r.p.win.cur(r).Add(item) }
func (r *runRing) AddUint64(item uint64) bool     { return r.p.win.cur(r).AddUint64(item) }
func (r *runRing) AddString(item string) bool     { return r.p.win.cur(r).AddString(item) }
func (r *runRing) Estimate() float64              { return r.p.win.estimate(r) }
func (r *runRing) SizeBits() int                  { return ringSizeBits(r) }
func (r *runRing) Reset()                         { r.p.releaseAll(r.slot) }
func (r *runRing) Merge(other Counter) error      { return mergeRings(r, other) }
func (r *runRing) MarshalBinary() ([]byte, error) { return marshalRing(r) }

// EstimateWindow implements WindowCounter.
func (r *runRing) EstimateWindow(span time.Duration) (WindowEstimate, error) {
	return r.p.win.estimateSpan(r, span)
}

func (r *runRing) entry(i int) (int64, bool) {
	if ref := r.refs[i]; ref != 0 {
		return int64(r.p.run(ref - 1)[runWidx]), true
	}
	return 0, false
}

func (r *runRing) release(i int) {
	j := r.refs[i] - 1
	r.refs[i] = 0
	r.p.release(j)
}

func (r *runRing) claim(i int, widx int64) Counter {
	if r.refs[i] == 0 {
		r.refs[i] = r.p.push(r.slot, i) + 1
	}
	r.p.settle()
	run := r.p.run(r.refs[i] - 1)
	run[runWidx] = uint64(widx)
	c := r.p.v.bind(run[runHdr:])
	c.Reset()
	return c
}

func (r *runRing) restore(i int, widx int64, blob []byte) error {
	r.refs[i] = r.p.push(r.slot, i) + 1
	run := r.p.run(r.refs[i] - 1)
	run[runWidx] = uint64(widx)
	return unmarshalRun(r.p.v, run[runHdr:], blob)
}

func (r *runRing) scratch() Counter {
	p := r.p
	if p.scratch == nil {
		p.scratch = p.win.src.new()
	} else {
		p.scratch.Reset()
	}
	return p.scratch
}

// Footprint implements Counter: the ring's references and its live runs.
func (r *runRing) Footprint() int {
	total := 4 * len(r.refs)
	for _, ref := range r.refs {
		if ref != 0 {
			total += 8 * r.p.pool.stride
		}
	}
	return total
}
