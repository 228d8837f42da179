package sbitmap

import (
	"fmt"
	"hash/maphash"
	"iter"
	"slices"
	"unsafe"

	"repro/internal/core"
)

// Slot tables. Every stripe of a Store keeps its keys in a slotTable: an
// open-addressing index of uint32 slot numbers, probed linearly from the
// key's probe hash (see hash), over fixed-stride slots in chunks of
// pointer-free words. A slot holds the key and, for an inline table, its
// sketch:
//
//	[0]      tag: the probe hash (uint64 keys), or its low 32 bits and
//	         the key's length in the high 32 bits (string keys)
//	[1]      the key (uint64 keys), or its key-log reference (string keys)
//	[2:4]    string keys only: the key's bytes when it is at most
//	         slotInline bytes long, zero-padded
//	[hdr:]   inline tables only: the sketch's run (core.Shared.RunWords):
//	         fill level L, threshold register, bitmap words
//
// An unbounded, unwindowed S-bitmap Store — the paper's deployment, one
// tiny sketch "for each of the links" (Section 7) — keeps its sketches
// inline, so a warm record costs a probe hash, one index probe and one
// slot access — the paper's one hash and one bit probe, plus the lookup —
// and the sketch is read and written in place through a core view bound
// to the slot. Every other store keeps one heap Counter per slot in ctrs,
// in slot order: a bounded store's evicted counter outlives its slot, and
// a windowed store's unit of allocation is a ring of sub-window counters.
// Slots are dense: slots [0, keys) are live, Remove moves the last slot
// (and its counter) into the hole, and iteration walks them in order.
// String keys' bytes also go to a per-stripe append-only key log, so the
// keys the Store hands out (ForEach, ForEachDirty, TopK, OnEvict) are
// views of memory that is never rewritten and stay valid after the call.
// The GC scans neither slots nor log.
type slotTable[K StoreKey] struct {
	sh     *core.Shared // inline sketches' shared state, one per store; nil for heap counters
	seed   maphash.Seed // the probe hash's, random per table
	str    bool         // K is string-kinded
	hdr    int          // slot words before the sketch run
	stride int          // words per slot

	idx    []uint32   // power-of-two length; 0 = empty, else slot number + 1
	chunks [][]uint64 // slotChunk slots each; the last one grows by doubling
	keys   int        // live keys, in slots [0, keys)
	bytes  int        // slot chunk capacities
	log    keyLog
	ctrs   []Counter // heap counters, one per live slot; nil for inline tables

	// view is the Counter bound to one inline slot at a time, under the
	// stripe lock: valid until the next table call.
	view SBitmap
}

const (
	// slotChunkBits sizes a full slot chunk: 1,024 slots of any stride
	// (a whole number of words) is a whole number of 8 KiB pages, so a
	// full chunk wastes no allocation rounding.
	slotChunkBits = 10
	slotChunk     = 1 << slotChunkBits
	// slotChunkMin is the slot capacity of a chunk's first allocation; a
	// chunk doubles until full, so a small stripe stays small.
	slotChunkMin = 4
	// slotInline is the longest string key compared in its slot; longer
	// ones are compared in the key log.
	slotInline = 16
	// slotIndexMin is the smallest index; the index doubles when a key
	// would raise its load above 3/4 and halves when its load falls below
	// 1/8.
	slotIndexMin = 8
)

// newSlotTable returns an empty table whose sketches sit inline under sh,
// or, when sh is nil, one that keeps heap counters.
func newSlotTable[K StoreKey](sh *core.Shared, str bool) *slotTable[K] {
	hdr := 2
	if str {
		hdr += slotInline / 8
	}
	t := &slotTable[K]{sh: sh, seed: maphash.MakeSeed(), str: str, hdr: hdr, stride: hdr}
	if sh != nil {
		t.stride += sh.RunWords()
	}
	return t
}

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
func (t *slotTable[K]) slot(i uint32) []uint64 {
	off := int(i&(slotChunk-1)) * t.stride
	return t.chunks[i>>slotChunkBits][off : off+t.stride : off+t.stride]
}

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

// bind points the table's view at slot sl's sketch and returns it.
func (t *slotTable[K]) bind(sl []uint64) Counter {
	t.sh.View(&t.view.sk, sl[t.hdr:])
	return &t.view
}

// at returns slot i's counter: its heap counter, or the view bound to its
// inline sketch.
func (t *slotTable[K]) at(i uint32) Counter {
	if t.sh == nil {
		return t.ctrs[i]
	}
	return t.bind(t.slot(i))
}

// lookup returns key's counter if key is live.
func (t *slotTable[K]) lookup(key K) (Counter, bool) {
	pos, ok := t.find(t.hash(key), key)
	if !ok {
		return nil, false
	}
	return t.at(t.idx[pos] - 1), true
}

// insert materializes key, absent, at index position pos — the empty
// position find returned — with heap counter c, or, for an inline table
// (c nil), an empty sketch in its slot; it returns the key's counter.
func (t *slotTable[K]) insert(pos uint32, h uint64, key K, c Counter) Counter {
	sl := t.add(pos, h, key, c)
	if c != nil {
		return c
	}
	t.sh.Init(&t.view.sk, sl[t.hdr:])
	return &t.view
}

// restore adds key with counter c, decoded from its snapshot blob, or,
// for an inline table (c nil), with the sketch blob (as Marshal writes it)
// holds, decoded straight into a new slot. dup reports a key already
// present. A Store snapshot holds only counters built from its own spec,
// so a blob of another kind or other parameters is a corrupt snapshot.
func (t *slotTable[K]) restore(key K, c Counter, blob []byte) (dup bool, err error) {
	h := t.hash(key)
	pos, ok := t.find(h, key)
	if ok {
		return true, nil
	}
	if c != nil {
		t.add(pos, h, key, c)
		return false, nil
	}
	payload, err := payloadOfKind(blob, KindSBitmap)
	if err != nil {
		return false, fmt.Errorf("sbitmap: store key %v: %w", key, err)
	}
	sl := t.add(pos, h, key, nil)
	if err := t.sh.UnmarshalInto(&t.view.sk, sl[t.hdr:], payload); err != nil {
		t.remove(key)
		return false, fmt.Errorf("sbitmap: store key %v: sbitmap: %w", key, err)
	}
	return false, nil
}

// add materializes key in a new slot, indexed at pos — the empty position
// find returned — unless the index grows first, with heap counter c (nil
// for an inline table, whose slot's run is zero).
func (t *slotTable[K]) add(pos uint32, h uint64, key K, c Counter) []uint64 {
	if 4*(t.keys+1) > 3*len(t.idx) {
		t.grow(max(slotIndexMin, 2*len(t.idx)))
		pos, _ = t.find(h, key)
	}
	i := uint32(t.keys)
	if ch := int(i >> slotChunkBits); ch == len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	t.reserve(i)
	sl := t.slot(i)
	clear(sl)
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
	return sl
}

// reserve makes room for slot i at the end of the last chunk, doubling
// the chunk (up to slotChunk slots) when it is full.
func (t *slotTable[K]) reserve(i uint32) {
	c := &t.chunks[i>>slotChunkBits]
	need := (int(i&(slotChunk-1)) + 1) * t.stride
	if need <= len(*c) {
		return
	}
	t.resize(c, min(slotChunk, max(slotChunkMin, 2*(len(*c)/t.stride))))
}

// resize reallocates chunk c with room for at least slots slots, keeping
// as many of its leading words as fit.
func (t *slotTable[K]) resize(c *[]uint64, slots int) {
	// Allocated through append, so the capacity is the allocation's size
	// class and Footprint counts exactly what the heap holds.
	sized := slices.Grow([]uint64(nil), slots*t.stride)
	sized = sized[:cap(sized)]
	copy(sized, *c)
	t.bytes += 8 * (len(sized) - len(*c))
	*c = sized
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

// remove deletes key and reports whether it was live. The index entry
// goes by backward-shift deletion (Knuth, TAOCP vol. 3, §6.4, Algorithm
// R), so no tombstones accumulate; the last slot, and its heap counter,
// moves into the freed one, so slots stay dense, and a chunk left empty is
// dropped. The last chunk is reallocated at half its size, down to
// slotChunkMin slots, once less than a quarter of it is live; the index
// halves once its load falls below 1/8, down to slotIndexMin; and the
// counter slice is reallocated once less than a quarter of it is in use.
// So a table that sheds keys gives their memory back, and growth — a
// chunk doubles only when full, the index at load 3/4 — keeps all three
// far from thrashing. A string key's log bytes are dead from then on, and
// the log is compacted once its dead bytes exceed half its live ones, so
// dead bytes never hold more than a third of the log.
func (t *slotTable[K]) remove(key K) bool {
	pos, ok := t.find(t.hash(key), key)
	if !ok {
		return false
	}
	i := t.idx[pos] - 1
	if t.str {
		t.log.kill(int(t.slot(i)[0] >> 32))
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
	}
	if t.sh == nil {
		t.ctrs[i] = t.ctrs[last]
		t.ctrs[last] = nil
		t.ctrs = t.ctrs[:last]
		if 4*len(t.ctrs) < cap(t.ctrs) {
			t.ctrs = append([]Counter(nil), t.ctrs...)
		}
	}
	t.keys--
	c := len(t.chunks) - 1
	switch live, slots := t.keys-c<<slotChunkBits, len(t.chunks[c])/t.stride; {
	case live == 0:
		t.bytes -= 8 * len(t.chunks[c])
		t.chunks[c] = nil
		t.chunks = t.chunks[:c]
		t.view = SBitmap{} // it may still be bound to a slot of the chunk
	case 4*live < slots && slots >= 2*slotChunkMin:
		t.resize(&t.chunks[c], slots/2)
		t.view = SBitmap{} // it may still be bound to a slot of the old chunk
	}
	if len(t.idx) > slotIndexMin && 8*t.keys < len(t.idx) {
		t.grow(len(t.idx) / 2)
	}
	if t.str && 2*t.log.dead > t.log.live {
		t.compactLog()
	}
	return true
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

// all iterates the live keys and their counters in slot order; an inline
// counter is the table's view, bound to the key's slot until the next
// step.
func (t *slotTable[K]) all() iter.Seq2[K, Counter] {
	return func(yield func(K, Counter) bool) {
		for i := range uint32(t.keys) {
			if !yield(t.keyOf(t.slot(i)), t.at(i)) {
				return
			}
		}
	}
}

// reset drops every key, and the table's memory with them: the view too,
// which would otherwise keep the chunk of the slot it was last bound to.
func (t *slotTable[K]) reset() {
	t.idx, t.chunks, t.keys, t.bytes, t.log, t.ctrs, t.view = nil, nil, 0, 0, keyLog{}, nil, SBitmap{}
}

// footprint returns the table's resident bytes, from its capacities: the
// table itself, the index, the slot chunks, the key log and the heap
// counter slice (not the counters it points to).
func (t *slotTable[K]) footprint() int {
	return int(unsafe.Sizeof(*t)) + 4*cap(t.idx) + t.bytes + t.log.bytes +
		int(unsafe.Sizeof([]uint64(nil)))*cap(t.chunks) + int(unsafe.Sizeof([]byte(nil)))*cap(t.log.chunks) +
		int(unsafe.Sizeof(Counter(nil)))*cap(t.ctrs)
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
