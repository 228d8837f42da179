package sbitmap

import (
	"fmt"
	"hash/maphash"
	"iter"
	"slices"
	"unsafe"
)

// Slot tables. Every stripe of a Store keeps its keys in a slotTable: an
// open-addressing index of uint32 slot numbers, probed linearly from the
// key's probe hash (see hash), over fixed-stride slots in chunks of
// pointer-free words (wordChunks). A slot holds the key and, in a word
// table, its counter's words:
//
//	[0]      tag: the probe hash (uint64 keys), or its low 32 bits and
//	         the key's length in the high 32 bits (string keys)
//	[1]      the key (uint64 keys), or its key-log reference (string keys)
//	[2:4]    string keys only: the key's bytes when it is at most
//	         slotInline bytes long, zero-padded
//	[hdr:]   word tables only: the sketch's run — an S-bitmap's fill level
//	         L, threshold register and bitmap words (core.Shared.RunWords),
//	         or a HyperLogLog's registers, packed at 5 bits, 64 to 5
//	         words (hyperloglog.Shared.RunWords) — or, on a windowed
//	         store, the key's ring: one uint32 run reference per
//	         sub-window, two to a word, 0 for an empty sub-window, else
//	         the number of its run in the stripe's run pool plus one (see
//	         runRings)
//
// The kind alone decides the layout. A store whose kind has a run view
// (counterSource.runView) keeps words, bounded or not: the paper's
// deployment, one tiny sketch "for each of the links" (Section 7), per
// minute interval on a windowed store. A warm record then costs a probe
// hash, one index probe and one slot access — the paper's one hash and
// one bit probe, plus the lookup — and the sketch is read and written in
// place through a view bound to its run; a key that leaves for an OnEvict
// hook or a Merge leaves as a heap copy (detach). A kind without a run
// view has no words to keep: its table keeps one heap Counter per slot in
// ctrs, in slot order. The table builds, decodes, copies out and accounts
// every counter it holds, in either layout, so the Store never sees which
// one it has. Slots are dense: slots [0, keys) are live, Remove moves the
// last slot (and its counter) into the hole, and iteration walks them in
// order. String keys' bytes also go to a per-stripe append-only key log,
// so the keys the Store hands out (ForEach, ForEachDirty, TopK, OnEvict)
// are views of memory that is never rewritten and stay valid after the
// call. The GC scans neither slots, log nor runs.
type slotTable[K StoreKey] struct {
	seed   maphash.Seed // the probe hash's, random per table
	str    bool         // K is string-kinded
	inline bool         // a slot holds its key's sketch run
	hdr    int          // slot words before the sketch run or ring references

	idx   []uint32   // power-of-two length; 0 = empty, else slot number + 1
	slots wordChunks // slotChunk slots a chunk
	keys  int        // live keys, in slots [0, keys)
	log   keyLog
	ctrs  []Counter // heap counters, one per live slot; nil for word tables

	src *counterSource // builds, decodes and copies out the table's counters
	win *windowShared  // a windowed store's window configuration; nil otherwise

	// v binds a word table's sketches: their shared state (both nil in a
	// heap table) and one view of each kind, bound to one run at a time
	// under the stripe lock — valid until the next table call.
	v runViews
	// rings holds a windowed word table's sub-window runs; nil otherwise.
	rings *runRings
}

const (
	// slotChunkBits sizes a full slot chunk: 1,024 slots of any stride
	// (a whole number of words) is a whole number of 8 KiB pages, so a
	// full chunk wastes no allocation rounding.
	slotChunkBits = 10
	slotChunk     = 1 << slotChunkBits
	// slotChunkMin is the capacity of a chunk's first allocation, in
	// slots or runs; a chunk doubles until full, so a small stripe stays
	// small.
	slotChunkMin = 4
	// slotInline is the longest string key compared in its slot; longer
	// ones are compared in the key log.
	slotInline = 16
	// slotIndexMin is the smallest index; the index doubles when a key
	// would raise its load above 3/4 and halves when its load falls below
	// 1/8.
	slotIndexMin = 8
)

// newSlotTable returns an empty table for a store whose counters come
// from src: a word table when words is set — the sketch run inline in
// each slot, or on a windowed store (win set) the key's ring of run
// references — and a table of heap counters, or heap rings, otherwise.
func newSlotTable[K StoreKey](src *counterSource, win *windowShared, words, str bool) *slotTable[K] {
	hdr := 2
	if str {
		hdr += slotInline / 8
	}
	t := &slotTable[K]{seed: maphash.MakeSeed(), str: str, hdr: hdr, src: src, win: win}
	stride := hdr
	if words {
		t.v = runViews{sb: src.sb, hll: src.hll}
		if win == nil {
			t.inline = true
			stride += t.v.words()
		} else {
			stride += (win.ring + 1) / 2
			t.rings = newRunRings(src, win, &t.slots, &t.v, hdr)
		}
	}
	t.slots = wordChunks{stride: stride, bits: slotChunkBits}
	return t
}

// words reports whether the table keeps its counters in words.
func (t *slotTable[K]) words() bool { return t.v.sb != nil || t.v.hll != nil }

// hash returns key's probe hash: hash/maphash under the table's own random
// seed, which never leaves the process. The router hash cannot serve: its
// seed is part of the Spec, which the service reports, so clients could
// pick keys that share a probe start (or, for string keys, the whole
// router hash) and make every insert and lookup walk one long probe
// chain. It picks the stripe only.
func (t *slotTable[K]) hash(key K) uint64 {
	if t.str {
		return maphash.String(t.seed, keyString(key))
	}
	return maphash.Comparable(t.seed, keyWord(key))
}

// slot returns slot i's words.
func (t *slotTable[K]) slot(i uint32) []uint64 { return t.slots.at(i) }

// tag is the slot tag of a key with probe hash h.
func (t *slotTable[K]) tag(h uint64, key K) uint64 {
	if t.str {
		return uint64(uint32(h)) | uint64(len(keyString(key)))<<32
	}
	return h
}

// inlineKey returns the inline key bytes of a string slot.
func inlineKey(sl []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&sl[2])), slotInline)
}

// keyIs reports whether slot sl, whose tag matches key's, holds key.
func (t *slotTable[K]) keyIs(sl []uint64, key K) bool {
	if !t.str {
		return sl[1] == keyWord(key)
	}
	k := keyString(key)
	if len(k) <= slotInline {
		return string(inlineKey(sl)[:len(k)]) == k
	}
	return t.log.key(sl[1], len(k)) == k
}

// keyOf returns the key slot sl holds; a string key is a view of the key
// log, valid for good.
func (t *slotTable[K]) keyOf(sl []uint64) K {
	if !t.str {
		return keyFromWord[K](sl[1])
	}
	return keyFromString[K](t.log.key(sl[1], int(sl[0]>>32)))
}

// find returns the index position holding key, whose probe hash is h,
// and true; or, when the key is absent, the empty position it would take.
// Every tag match is confirmed by an exact key compare.
func (t *slotTable[K]) find(h uint64, key K) (pos uint32, ok bool) {
	if len(t.idx) == 0 {
		return 0, false
	}
	tag, mask := t.tag(h, key), uint32(len(t.idx)-1)
	for pos = uint32(h) & mask; ; pos = (pos + 1) & mask {
		e := t.idx[pos]
		if e == 0 {
			return pos, false
		}
		if sl := t.slot(e - 1); sl[0] == tag && t.keyIs(sl, key) {
			return pos, true
		}
	}
}

// at returns slot i's counter: its heap counter, the sketch view bound to
// its run, or the ring view bound to its ring.
func (t *slotTable[K]) at(i uint32) Counter {
	if t.inline {
		return t.v.bind(t.slot(i)[t.hdr:])
	}
	if t.rings != nil {
		return t.rings.bind(i)
	}
	return t.ctrs[i]
}

// ringAt returns slot i's ring on a windowed store: its heap ring, or the
// ring view bound to its run references.
func (t *slotTable[K]) ringAt(i uint32) ringEntries {
	if t.rings != nil {
		return t.rings.bind(i)
	}
	return t.ctrs[i].(*windowRing)
}

// detach returns slot i's counter in a form that outlives the stripe
// lock and the slot: a heap counter as it is, a sketch kept in words as a
// heap copy, a ring kept in words as a heap ring of copies. Copies share
// the store's read-only state.
func (t *slotTable[K]) detach(i uint32) Counter {
	switch {
	case t.inline:
		return t.src.copyOf(t.slot(i)[t.hdr:])
	case t.rings != nil:
		return t.rings.copyOf(i)
	}
	return t.ctrs[i]
}

// slotOf returns key's slot if key is live.
func (t *slotTable[K]) slotOf(key K) (uint32, bool) {
	pos, ok := t.find(t.hash(key), key)
	if !ok {
		return 0, false
	}
	return t.idx[pos] - 1, true
}

// lookup returns key's counter if key is live.
func (t *slotTable[K]) lookup(key K) (Counter, bool) {
	i, ok := t.slotOf(key)
	if !ok {
		return nil, false
	}
	return t.at(i), true
}

// insert materializes key, absent, at index position pos — the empty
// position find returned — with an empty counter: a sketch or ring in its
// slot's words, or a new heap counter or heap ring. It returns the key's
// slot.
func (t *slotTable[K]) insert(pos uint32, h uint64, key K) uint32 {
	var c Counter
	switch {
	case t.words():
	case t.win != nil:
		c = newWindowRing(t.win)
	default:
		c = t.src.new()
	}
	i := t.add(pos, h, key, c)
	if t.inline {
		t.v.init(t.slot(i)[t.hdr:])
	}
	return i
}

// restore adds key with the counter its snapshot blob (as Marshal writes
// it) holds and returns the key's slot; dup reports a key already
// present. A heap counter is decoded before its slot is made; a sketch or
// ring kept in words, and a heap ring, are decoded into the empty one
// insert makes. A Store snapshot holds only counters built from its own
// spec, so a blob of another kind or other parameters is a corrupt
// snapshot.
func (t *slotTable[K]) restore(key K, blob []byte) (i uint32, dup bool, err error) {
	h := t.hash(key)
	pos, ok := t.find(h, key)
	if ok {
		return 0, true, nil
	}
	if !t.words() && t.win == nil {
		c, err := t.src.decode(blob)
		if err != nil {
			return 0, false, fmt.Errorf("sbitmap: store key %v: %w", key, err)
		}
		return t.add(pos, h, key, c), false, nil
	}
	i = t.insert(pos, h, key)
	if t.win != nil {
		err = unmarshalRing(t.ringAt(i), blob)
	} else {
		err = t.v.unmarshalInto(t.slot(i)[t.hdr:], blob)
	}
	if err != nil {
		t.remove(key)
		return 0, false, fmt.Errorf("sbitmap: store key %v: %w", key, err)
	}
	return i, false, nil
}

// add materializes key in a new slot, indexed at pos — the empty position
// find returned — unless the index grows first, with heap counter c (nil
// in a word table, whose slot words are zero), and returns the slot.
func (t *slotTable[K]) add(pos uint32, h uint64, key K, c Counter) uint32 {
	if 4*(t.keys+1) > 3*len(t.idx) {
		t.grow(max(slotIndexMin, 2*len(t.idx)))
		pos, _ = t.find(h, key)
	}
	i := uint32(t.keys)
	sl := t.slots.push(i)
	sl[0] = t.tag(h, key)
	if t.str {
		k := keyString(key)
		sl[1] = t.log.append(k)
		if len(k) <= slotInline {
			copy(inlineKey(sl), k)
		}
	} else {
		sl[1] = keyWord(key)
	}
	if c != nil {
		t.ctrs = append(t.ctrs, c)
	}
	t.idx[pos] = i + 1
	t.keys++
	return i
}

// grow rebuilds the index at size n, a power of two, from the slots' tags;
// remove shrinks it through here too.
func (t *slotTable[K]) grow(n int) {
	t.idx = make([]uint32, n)
	mask := uint32(n - 1)
	for i := range uint32(t.keys) {
		pos := uint32(t.slot(i)[0]) & mask
		for t.idx[pos] != 0 {
			pos = (pos + 1) & mask
		}
		t.idx[pos] = i + 1
	}
}

// remove deletes key and reports whether it was live. A ring's runs go
// back to the pool first. The index entry goes by backward-shift deletion
// (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so no tombstones accumulate;
// the last slot, and its heap counter, moves into the freed one, so slots
// stay dense, and the moved ring's runs learn their new owner. The slot
// chunks give memory back by wordChunks.shrink's rules; the index halves
// once its load falls below 1/8, down to slotIndexMin; and the counter
// slice is reallocated once less than a quarter of it is in use. So a
// table that sheds keys gives their memory back, and growth — a chunk
// doubles only when full, the index at load 3/4 — keeps all three far
// from thrashing. A string key's log bytes are dead from then on, and the
// log is compacted once its dead bytes exceed half its live ones, so dead
// bytes never hold more than a third of the log.
func (t *slotTable[K]) remove(key K) bool {
	pos, ok := t.find(t.hash(key), key)
	if !ok {
		return false
	}
	i := t.idx[pos] - 1
	if t.str {
		t.log.kill(int(t.slot(i)[0] >> 32))
	}
	if t.rings != nil {
		t.rings.releaseAll(i)
	}
	mask := uint32(len(t.idx) - 1)
	for j := (pos + 1) & mask; t.idx[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at pos unless its home lies
		// cyclically in (pos, j].
		if home := uint32(t.slot(t.idx[j] - 1)[0]) & mask; (j-home)&mask >= (j-pos)&mask {
			t.idx[pos], pos = t.idx[j], j
		}
	}
	t.idx[pos] = 0
	last := uint32(t.keys - 1)
	if i != last {
		src := t.slot(last)
		pos := uint32(src[0]) & mask
		for t.idx[pos] != last+1 {
			pos = (pos + 1) & mask
		}
		copy(t.slot(i), src)
		t.idx[pos] = i + 1
		if t.rings != nil {
			t.rings.reown(i)
		}
	}
	if !t.words() {
		t.ctrs[i] = t.ctrs[last]
		t.ctrs[last] = nil
		t.ctrs = t.ctrs[:last]
		if 4*len(t.ctrs) < cap(t.ctrs) {
			t.ctrs = append([]Counter(nil), t.ctrs...)
		}
	}
	t.keys--
	if t.slots.shrink(t.keys) {
		t.unbind() // a view may still be bound to a slot of the old chunk
	}
	if len(t.idx) > slotIndexMin && 8*t.keys < len(t.idx) {
		t.grow(len(t.idx) / 2)
	}
	if t.str && 2*t.log.dead > t.log.live {
		t.compactLog()
	}
	return true
}

// unbind drops the views' references, which would otherwise keep the
// chunks they were last bound to.
func (t *slotTable[K]) unbind() {
	t.v.unbind()
	if t.rings != nil {
		t.rings.ring.refs = nil
	}
}

// compactLog copies the live keys into a fresh key log. The old chunks are
// left to the GC, never overwritten: keys handed out earlier stay valid.
func (t *slotTable[K]) compactLog() {
	old := t.log
	t.log = keyLog{}
	for i := range uint32(t.keys) {
		sl := t.slot(i)
		sl[1] = t.log.append(old.key(sl[1], int(sl[0]>>32)))
	}
}

// all iterates the live keys and their counters in slot order; a word
// table's counter is its view, bound to the key's run or ring until the
// next step.
func (t *slotTable[K]) all() iter.Seq2[K, Counter] {
	return func(yield func(K, Counter) bool) {
		for i := range uint32(t.keys) {
			if !yield(t.keyOf(t.slot(i)), t.at(i)) {
				return
			}
		}
	}
}

// reset drops every key, and the table's memory with them: the views
// too, which would otherwise keep the chunks they were last bound to.
func (t *slotTable[K]) reset() {
	t.idx, t.keys, t.log, t.ctrs = nil, 0, keyLog{}, nil
	t.slots = wordChunks{stride: t.slots.stride, bits: t.slots.bits}
	t.unbind()
	if t.rings != nil {
		t.rings.reset()
	}
}

// footprint returns the table's resident bytes: the table itself, the
// index, the slot chunks, the key log, the run pool and the heap counter
// slice, from their capacities, plus each heap counter's own footprint. A
// word table answers without walking its keys.
func (t *slotTable[K]) footprint() int {
	n := int(unsafe.Sizeof(*t)) + 4*cap(t.idx) + t.slots.footprint() + t.log.bytes +
		int(unsafe.Sizeof([]byte(nil)))*cap(t.log.chunks) + int(unsafe.Sizeof(Counter(nil)))*cap(t.ctrs)
	if t.rings != nil {
		n += t.rings.footprint()
	}
	for _, c := range t.ctrs {
		n += c.Footprint()
	}
	return n
}

// sizeBits returns the table's summary bits. A word table's are its
// sketches' — one per key, or one per live sub-window — times the bits of
// one; a heap table sums its counters'.
func (t *slotTable[K]) sizeBits() int {
	switch {
	case t.rings != nil:
		return t.rings.runs * t.v.sizeBits()
	case t.inline:
		return t.keys * t.v.sizeBits()
	}
	total := 0
	for _, c := range t.ctrs {
		total += c.SizeBits()
	}
	return total
}

// wordChunks is a dense array of fixed-stride records of pointer-free
// words — a table's slots, or a run pool's runs — in chunks of 1<<bits
// records: records [0, n) are live for the count n its owner keeps. The
// last chunk grows by doubling from slotChunkMin records until full; as
// records leave it is dropped once empty, and halved once less than a
// quarter of it is live and it holds at least 2·slotChunkMin records (so
// a size class that rounds slotChunkMin up is never reallocated to
// itself). So an owner that sheds records gives their memory back, and
// growth keeps far from thrashing.
type wordChunks struct {
	chunks [][]uint64
	stride int // words per record
	bits   int // log2 of a full chunk's records
	bytes  int // chunk capacities
}

// at returns record i's words.
func (c *wordChunks) at(i uint32) []uint64 {
	off := int(i&(1<<c.bits-1)) * c.stride
	return c.chunks[i>>c.bits][off : off+c.stride : off+c.stride]
}

// push makes room for record i, the first past the live ones, doubling
// the last chunk (or starting a new one) when it is full, and returns its
// words, zeroed.
func (c *wordChunks) push(i uint32) []uint64 {
	ch := int(i >> c.bits)
	if ch == len(c.chunks) {
		c.chunks = append(c.chunks, nil)
	}
	last := &c.chunks[ch]
	if need := (int(i&(1<<c.bits-1)) + 1) * c.stride; need > len(*last) {
		c.resize(last, min(1<<c.bits, max(slotChunkMin, 2*(len(*last)/c.stride))))
	}
	rec := c.at(i)
	clear(rec)
	return rec
}

// shrink gives back the chunk memory records past the first n held, and
// reports whether it dropped or reallocated a chunk, so views into one
// are stale.
func (c *wordChunks) shrink(n int) bool {
	changed := false
	for len(c.chunks) > 0 && n <= (len(c.chunks)-1)<<c.bits {
		last := len(c.chunks) - 1
		c.bytes -= 8 * len(c.chunks[last])
		c.chunks[last] = nil
		c.chunks = c.chunks[:last]
		changed = true
	}
	if len(c.chunks) == 0 {
		return changed
	}
	last := len(c.chunks) - 1
	live, recs := n-last<<c.bits, len(c.chunks[last])/c.stride
	to := recs
	for 4*live < to && to >= 2*slotChunkMin {
		to /= 2
	}
	if to == recs {
		return changed
	}
	c.resize(&c.chunks[last], to)
	return true
}

// resize reallocates chunk ch with room for at least recs records,
// keeping as many of its leading words as fit.
func (c *wordChunks) resize(ch *[]uint64, recs int) {
	// Allocated through append, so the capacity is the allocation's size
	// class and Footprint counts exactly what the heap holds.
	sized := slices.Grow([]uint64(nil), recs*c.stride)
	sized = sized[:cap(sized)]
	copy(sized, *ch)
	c.bytes += 8 * (len(sized) - len(*ch))
	*ch = sized
}

// footprint returns the chunks' bytes and the chunk list's.
func (c *wordChunks) footprint() int {
	return c.bytes + int(unsafe.Sizeof([]uint64(nil)))*cap(c.chunks)
}

// keyLog is a stripe's append-only store of string key bytes: chunks that
// are filled once and never rewritten, so a key read from the log is a
// valid string for as long as anyone holds it. A reference is the chunk
// index in the high 32 bits and the byte offset in the low 32.
type keyLog struct {
	chunks     [][]byte // keys append to the last one
	bytes      int      // chunk capacities
	live, dead int      // bytes of live and of removed keys
}

const (
	// keyLogChunk is the largest log chunk a stripe's chunks double up to
	// from keyLogChunkMin; a longer key gets a chunk of its own size.
	keyLogChunk    = 4096
	keyLogChunkMin = 64
)

// append stores key and returns its reference.
func (l *keyLog) append(key string) uint64 {
	l.live += len(key)
	if len(key) == 0 {
		return 0
	}
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1])+len(key) > cap(l.chunks[n-1]) {
		size := keyLogChunkMin
		if n != 0 {
			size = min(keyLogChunk, 2*cap(l.chunks[n-1]))
		}
		// Grown through append, so the capacity is the allocation's size
		// class and Footprint counts exactly what the heap holds.
		c := slices.Grow([]byte(nil), max(size, len(key)))
		l.chunks = append(l.chunks, c)
		l.bytes += cap(c)
		n++
	}
	c := &l.chunks[n-1]
	off := len(*c)
	*c = append(*c, key...)
	return uint64(n-1)<<32 | uint64(off)
}

// key returns the n-byte key at ref, a view of the log.
func (l *keyLog) key(ref uint64, n int) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&l.chunks[ref>>32][uint32(ref)], n)
}

// kill marks n bytes of a removed key dead.
func (l *keyLog) kill(n int) { l.live, l.dead = l.live-n, l.dead+n }
