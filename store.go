package sbitmap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/uhash"
)

// Store is the keyed face of the module: a concurrent collection of
// per-key counters — the paper's headline deployment ("estimating flows
// for each of the links", Section 7) and the spread-estimation workload of
// Estan et al. (2006), where a monitor keeps one tiny sketch per flow,
// host, or link, for millions of keys at once.
//
// Every counter is lazily materialized from a single Spec the first time
// its key is seen, so all keys share one dimensioning, one hash seed, and
// one hash family: estimates are comparable across keys, identically
// specced Stores on different machines can Merge key-wise (for Mergeable
// kinds), and a whole Store snapshots into one framed container
// (MarshalBinary / UnmarshalStore).
//
// Keys are strings or 64-bit integers (any type whose underlying type is
// one of the two). Access is lock-striped: keys hash onto independently
// locked stripes, so ingestion scales across goroutines, and the keyed
// batch methods route a whole batch with one hash pass and take each
// touched stripe's lock once per batch. Each stripe keeps its keys in a
// flat slot table found by one index probe (see slotTable), laid out by
// the spec's kind alone: an S-bitmap, HyperLogLog or LogLog store,
// bounded or not, keeps each key's sketch inline in its slot — or,
// windowed, its ring of sub-window runs (see runRings) — and a store of
// any other kind one heap counter per slot.
//
// A Store is safe for concurrent use. Memory is bounded by WithMaxKeys
// plus the OnEvict hook; unbounded otherwise (one counter per distinct
// key ever seen).
type Store[K StoreKey] struct {
	spec    Spec
	stripes []storeStripe[K]
	router  *uhash.Mixer
	limit   int  // max keys (0 = unbounded)
	isStr   bool // K's underlying type is string (cached keyIsString)
	keys    atomic.Int64
	onEvict func(K, Counter)

	// gen is the dirty-tracking generation: every mutation stamps its
	// stripe with the current value, and MarshalStripes advances it to cut
	// a new checkpoint epoch. See MarshalStripes for the protocol.
	gen atomic.Uint64

	// src is the resolved base spec: the state the store's sketches share,
	// and the source every slot table builds, decodes and copies out its
	// counters through.
	src *counterSource

	// win is the sliding-window configuration of a windowed(...) spec; nil
	// otherwise. When set, per-key counters are sub-window rings (run
	// rings or heap windowRings), wm is the watermark sub-window index
	// (the highest any record has reached; wmNone before the first), and
	// late counts records that arrived more than ring sub-windows behind
	// the watermark and were folded into the watermark window.
	win  *windowShared
	wm   atomic.Int64
	late atomic.Int64

	// scratch pools the routing/grouping buffers of in-flight batches.
	scratch sync.Pool
}

// StoreKey constrains Store keys to the two wire-representable key shapes:
// strings (flow tuples, user ids, URLs) and 64-bit words (packed 5-tuples
// like netflow.FlowKey, link or tenant ids).
type StoreKey interface {
	~string | ~uint64
}

// storeStripe is one lock-striped segment of the key space: the lock and
// its keys' slot table, padded to 128 B.
type storeStripe[K StoreKey] struct {
	mu     sync.Mutex
	tab    *slotTable[K] // keys and counters, under mu
	modGen uint64        // generation of the last mutation, under mu
	_      [104]byte     // pad to reduce false sharing between adjacent locks
}

// StoreOption configures a Store at construction.
type StoreOption func(*storeConfig)

type storeConfig struct {
	stripes int
	maxKeys int
}

// WithStripes sets the lock-stripe count (default 64). More stripes admit
// more concurrent writers at a few hundred bytes each; the count does not
// affect estimates or snapshots.
func WithStripes(n int) StoreOption { return func(c *storeConfig) { c.stripes = n } }

// WithMaxKeys bounds the number of live keys: materializing a key beyond
// the limit first evicts a random key — from the new key's own
// stripe when it holds one, otherwise from another uncontended stripe
// (sketch eviction is estimator-agnostic — any victim loses exactly its
// own per-key count). Pair with OnEvict to spill evicted counters.
// Under concurrent ingest the bound can transiently overshoot by at
// most the stripe count. 0 (the default) means unbounded.
func WithMaxKeys(n int) StoreOption { return func(c *storeConfig) { c.maxKeys = n } }

// storeDefaultStripes is the default lock-stripe count.
const storeDefaultStripes = 64

// storeRouterSalt decouples the stripe router's seed from the counters'
// hash seed (their hash functions must be independent).
const storeRouterSalt = 0x5b0a5ed5707e15

// NewStore returns an empty keyed store whose per-key counters are built
// from spec. The spec is validated by constructing (and discarding) one
// counter, so any dimensioning error surfaces here, not mid-ingest.
//
// A spec carrying the windowed(width=…,ring=…) modifier builds a
// sliding-window store: each key holds a ring of Ring sub-window
// sketches of the base spec, rotated by record timestamps (the At
// ingest variants), and EstimateWindow answers queries over a trailing
// span. See the windowRing documentation for the time model.
func NewStore[K StoreKey](spec Spec, opts ...StoreOption) (*Store[K], error) {
	cfg := storeConfig{stripes: storeDefaultStripes}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.stripes < 1 {
		return nil, fmt.Errorf("sbitmap: store stripe count %d < 1", cfg.stripes)
	}
	if cfg.maxKeys < 0 {
		return nil, fmt.Errorf("sbitmap: store key limit %d < 0", cfg.maxKeys)
	}
	if spec.Window == 0 && spec.Ring != 0 {
		return nil, fmt.Errorf("sbitmap: store spec ring=%d without a window width", spec.Ring)
	}
	if spec.Window != 0 {
		if spec.Window < 0 {
			return nil, fmt.Errorf("sbitmap: store spec window %s < 0", spec.Window)
		}
		if spec.Ring == 0 {
			spec.Ring = DefaultWindowRing
		}
		if spec.Ring < 0 || spec.Ring > maxWindowRing {
			return nil, fmt.Errorf("sbitmap: store spec ring %d outside [1, %d]", spec.Ring, maxWindowRing)
		}
		if spec.Window > math.MaxInt64/time.Duration(spec.Ring) {
			return nil, fmt.Errorf("sbitmap: store spec retention %s×%d overflows a duration", spec.Window, spec.Ring)
		}
	}
	// The per-sub-window sketch is dimensioned by the spec minus the
	// window modifier; for unwindowed specs base == spec.
	src, err := newCounterSource(spec.base())
	if err != nil {
		return nil, fmt.Errorf("sbitmap: store spec: %w", err)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Store[K]{
		spec:    spec,
		stripes: make([]storeStripe[K], cfg.stripes),
		router:  uhash.NewMixer(seed ^ storeRouterSalt),
		limit:   cfg.maxKeys,
		isStr:   keyIsString[K](),
		src:     src,
	}
	s.wm.Store(wmNone)
	if spec.Window != 0 {
		s.win = &windowShared{width: int64(spec.Window), ring: spec.Ring, src: src, wm: &s.wm}
	}
	// A store of a kind with a run view keeps its sketches in the slot
	// tables' words; every other store keeps heap counters.
	words := src.runs != nil
	for i := range s.stripes {
		s.stripes[i].tab = newSlotTable[K](src, s.win, words, s.isStr)
	}
	return s, nil
}

// OnEvict installs the eviction hook: fn runs whenever WithMaxKeys
// removes a key, receiving the key and its final counter — snapshot it,
// sum it into a coarser aggregate, or drop it. The counter is a copy that
// fn owns: it outlives the key's slot and shares only read-only state
// with the store, so fn may keep it and feed it on any goroutine. fn runs
// with the key's stripe locked and must be cheap, must not call back into
// the Store, and must be safe for concurrent use: even one batch call may
// run it on several goroutines at once. Install before concurrent use.
func (s *Store[K]) OnEvict(fn func(key K, c Counter)) { s.onEvict = fn }

// Spec returns the Spec every per-key counter is built from.
func (s *Store[K]) Spec() Spec { return s.spec }

// keyIsString reports whether K's underlying type is string (the
// constraint admits only string- and uint64-kinded keys). The hot paths
// read the Store's cached isStr instead of re-deriving this per record.
func keyIsString[K StoreKey]() bool {
	var zero K
	return reflect.TypeOf(zero).Kind() == reflect.String
}

// keyString and keyWord reinterpret a key as its underlying
// representation (valid because K's underlying type is exactly string or
// uint64); keyFromString / keyFromWord invert them.
func keyString[K StoreKey](k K) string     { return *(*string)(unsafe.Pointer(&k)) }
func keyWord[K StoreKey](k K) uint64       { return *(*uint64)(unsafe.Pointer(&k)) }
func keyFromString[K StoreKey](v string) K { return *(*K)(unsafe.Pointer(&v)) }
func keyFromWord[K StoreKey](v uint64) K   { return *(*K)(unsafe.Pointer(&v)) }

// hashKey routes a key: the high word of its 128-bit router hash.
func (s *Store[K]) hashKey(key K) uint64 {
	if s.isStr {
		hi, _ := s.router.Sum128String(keyString(key))
		return hi
	}
	hi, _ := s.router.Sum128Uint64(keyWord(key))
	return hi
}

// stripeIndex maps a router hash word onto [0, stripes) by multiply-shift
// (unbiased for any stripe count).
func (s *Store[K]) stripeIndex(word uint64) uint64 {
	return ((word >> 32) * uint64(len(s.stripes))) >> 32
}

func (s *Store[K]) stripeFor(key K) *storeStripe[K] {
	return &s.stripes[s.stripeIndex(s.hashKey(key))]
}

// touchLocked stamps a stripe dirty at the current generation. Every
// path that mutates stripe state — adds, batch ingest, merge, remove,
// reset, and eviction (which may victimize a stripe other than the one
// being inserted into) — calls it with the stripe's lock held, so
// MarshalStripes can encode exactly the stripes touched since a cut.
func (s *Store[K]) touchLocked(st *storeStripe[K]) { st.modGen = s.gen.Load() }

// keyLocked returns key's slot, materializing it (and, at the key limit,
// evicting) under the stripe lock the caller holds. A string key is
// copied into the slot table's key log on materialization: the store must
// own its key storage, because zero-copy ingest paths (the wire listener)
// pass keys aliasing reusable frame buffers. Lookups of already-live keys
// never copy.
func (s *Store[K]) keyLocked(st *storeStripe[K], key K) uint32 {
	t := st.tab
	h := t.hash(key)
	pos, ok := t.find(h, key)
	if ok {
		return t.idx[pos] - 1
	}
	if s.limit > 0 && int(s.keys.Load()) >= s.limit {
		// key is not in the table yet, so it cannot be the victim; the
		// victim's removal may move key's empty index position.
		s.evictOneLocked(st)
		pos, _ = t.find(h, key)
	}
	s.keys.Add(1)
	return t.insert(pos, h, key)
}

// evictOneLocked removes one key and fires the eviction hook: first from
// the locked stripe, else from another stripe taken with TryLock (never a
// blocking second lock, so eviction cannot deadlock against batch ingest
// or a concurrent evictor).
func (s *Store[K]) evictOneLocked(st *storeStripe[K]) {
	if s.evictLocked(st) {
		return
	}
	for i := range s.stripes {
		cand := &s.stripes[i]
		if cand == st || !cand.mu.TryLock() {
			continue
		}
		ok := s.evictLocked(cand)
		cand.mu.Unlock()
		if ok {
			return
		}
	}
	// Every other stripe was empty or busy; the insert proceeds and the
	// store transiently overshoots (bounded by the stripe count).
}

// evictLocked removes a uniformly random live key of the locked stripe
// st, handing it and a copy of its counter that outlives its slot
// (slotTable.detach, taken only for a hook) to the eviction hook, and
// reports whether st had a key. A random victim is the right neutral
// policy for sketches: no per-key access metadata, and any victim
// forfeits exactly its own count (the newest or oldest slot would make it
// LIFO or FIFO).
func (s *Store[K]) evictLocked(st *storeStripe[K]) bool {
	t := st.tab
	if t.keys == 0 {
		return false
	}
	i := uint32(rand.IntN(t.keys))
	key := t.keyOf(t.slot(i))
	var c Counter
	if s.onEvict != nil {
		c = t.detach(i)
	}
	t.remove(key)
	s.touchLocked(st)
	s.keys.Add(-1)
	if s.onEvict != nil {
		s.onEvict(key, c)
	}
	return true
}

// advanceWatermark raises the watermark sub-window index to at least
// widx and returns the post-advance watermark. Lock-free (CAS max): the
// watermark is read on estimate paths that do not hold stripe locks.
func (s *Store[K]) advanceWatermark(widx int64) int64 {
	for {
		cur := s.wm.Load()
		if cur >= widx && cur != wmNone {
			return cur
		}
		if s.wm.CompareAndSwap(cur, widx) {
			return widx
		}
	}
}

// resolveWidx resolves the sub-window an n-record ingest lands in, given
// the timestamp's own sub-window: normally widx itself (advancing the
// watermark when the batch moves time forward), but a record more than
// ring sub-windows behind the watermark has lost its slot — it folds
// into the watermark window and is counted in LateRecords. Returns 0 for
// unwindowed stores, whose ingest ignores time entirely.
func (s *Store[K]) resolveWidx(widx int64, n int) int64 {
	if s.win == nil {
		return 0
	}
	wm := s.advanceWatermark(widx)
	if widx <= wm-int64(s.win.ring) {
		s.late.Add(int64(n))
		return wm
	}
	return widx
}

// slotLocked resolves the counter that receives sub-window widx's
// records for key — the key's counter itself for unwindowed stores, the
// ring's sketch rotated to widx for windowed ones. Stripe lock held.
func (s *Store[K]) slotLocked(st *storeStripe[K], key K, widx int64) Counter {
	i := s.keyLocked(st, key)
	if s.win == nil {
		return st.tab.at(i)
	}
	return s.win.rotate(st.tab.ringAt(i), widx)
}

// lockSlot resolves the sub-window a single record stamped ts lands in,
// locks key's stripe, stamps it dirty and returns it with the counter
// that receives the record. The caller unlocks the stripe.
func (s *Store[K]) lockSlot(ts time.Time, key K) (*storeStripe[K], Counter) {
	widx := s.resolveWidx(s.tsWidx(ts), 1)
	st := s.stripeFor(key)
	st.mu.Lock()
	s.touchLocked(st)
	return st, s.slotLocked(st, key, widx)
}

// Add offers item to key's counter, materializing it on first sight; it
// reports whether the counter's state changed. On a windowed store the
// item lands in the watermark sub-window (use AddUint64At or AddStringAt
// to place it in time). Safe for concurrent use.
func (s *Store[K]) Add(key K, item []byte) bool {
	st, c := s.lockSlot(time.Time{}, key)
	changed := c.Add(item)
	st.mu.Unlock()
	return changed
}

// AddUint64 offers a 64-bit item to key's counter; safe for concurrent
// use. On a windowed store the item lands in the watermark sub-window.
func (s *Store[K]) AddUint64(key K, item uint64) bool {
	return s.AddUint64At(time.Time{}, key, item)
}

// AddUint64At is AddUint64 with an explicit record timestamp: on a
// windowed store the item lands in ts's sub-window (floor(ts/width)); an
// unwindowed store ignores ts. Timestamps are caller-supplied — replayed
// traces carry their own clock — and a record more than ring sub-windows
// behind the watermark folds into the watermark window (see LateRecords).
// The zero time.Time means no timestamp: the item lands where AddUint64
// puts it, in the watermark sub-window (sub-window 0 before any record).
func (s *Store[K]) AddUint64At(ts time.Time, key K, item uint64) bool {
	st, c := s.lockSlot(ts, key)
	changed := c.AddUint64(item)
	st.mu.Unlock()
	return changed
}

// AddString offers a string item to key's counter; safe for concurrent
// use. On a windowed store the item lands in the watermark sub-window.
func (s *Store[K]) AddString(key K, item string) bool {
	return s.AddStringAt(time.Time{}, key, item)
}

// AddStringAt is AddString with an explicit record timestamp; see
// AddUint64At.
func (s *Store[K]) AddStringAt(ts time.Time, key K, item string) bool {
	st, c := s.lockSlot(ts, key)
	changed := c.AddString(item)
	st.mu.Unlock()
	return changed
}

// tsWidx discretizes a record timestamp into its sub-window index: the
// zero time.Time, which carries no timestamp, takes the watermark
// sub-window (windowShared.now). 0 for unwindowed stores, where it is
// never used.
func (s *Store[K]) tsWidx(ts time.Time) int64 {
	switch {
	case s.win == nil:
		return 0
	case ts.IsZero():
		return s.win.now()
	}
	return widxOf(ts.UnixNano(), s.win.width)
}

// storeScratch holds one in-flight batch: each record's (key, original
// position) grouped stripe-contiguously by counting sort, the per-stripe
// layout, an item-gather buffer, and the state its drainers share.
type storeScratch[K StoreKey] struct {
	s       *Store[K]
	hi      []uint64 // router high words, one per record
	recs    []storeRec[K]
	counts  []int
	offs    []int
	touched []int // stripes holding records, in index order
	link    []int // per touched slot: the claimer's next deferred slot
	buf64   []uint64
	bufS    []string
	// The batch being drained, set before any helper joins.
	widx    int64
	items64 []uint64
	itemsS  []string // non-nil for AddBatchString
	next    atomic.Int64
	changed atomic.Int64
	helpers sync.WaitGroup
}

// storeRec carries a record's key through stripe grouping; pos (the
// record's index in the caller's slices) fetches the item when the run
// is ingested. The counting sort preserves original record order within
// each stripe, which keeps the batch path bit-identical to per-item
// ingestion.
type storeRec[K StoreKey] struct {
	key K
	pos int
}

func (s *Store[K]) getScratch(n int) *storeScratch[K] {
	sc, _ := s.scratch.Get().(*storeScratch[K])
	if sc == nil {
		sc = &storeScratch[K]{s: s}
	}
	if cap(sc.hi) < n {
		sc.hi = make([]uint64, n)
		sc.recs = make([]storeRec[K], n)
	}
	if cap(sc.counts) < len(s.stripes) {
		sc.counts = make([]int, len(s.stripes))
		sc.offs = make([]int, len(s.stripes))
		sc.touched = make([]int, 0, len(s.stripes))
		sc.link = make([]int, len(s.stripes))
	}
	return sc
}

// putScratch returns leased buffers, dropping string references (keys and
// gathered items) so the pool cannot pin a caller's batch in memory.
func (s *Store[K]) putScratch(sc *storeScratch[K]) {
	if s.isStr {
		clear(sc.recs)
	}
	clear(sc.bufS)
	sc.items64, sc.itemsS = nil, nil
	s.scratch.Put(sc)
}

// hashKeys fills sc.hi with the router hash of every key, through the
// router's batch path.
func (s *Store[K]) hashKeys(keys []K, hi []uint64) {
	if len(keys) == 0 {
		return
	}
	if s.isStr {
		strs := unsafe.Slice((*string)(unsafe.Pointer(&keys[0])), len(keys))
		s.router.Sum128StringBatch(strs, hi, nil)
		return
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&keys[0])), len(keys))
	s.router.Sum128Uint64Batch(words, hi, nil)
}

// group routes every key and counting-sorts the records
// stripe-contiguously: on return sc.recs[offs[i]-counts[i]:offs[i]] are
// stripe i's records in original batch order, and sc.touched lists the
// stripes with records.
func (s *Store[K]) group(sc *storeScratch[K], keys []K) (counts, offs []int) {
	n := len(keys)
	hi := sc.hi[:n]
	s.hashKeys(keys, hi)
	counts = sc.counts[:len(s.stripes)]
	for i := range counts {
		counts[i] = 0
	}
	for i, w := range hi {
		idx := s.stripeIndex(w)
		hi[i] = idx
		counts[idx]++
	}
	offs = sc.offs[:len(s.stripes)]
	sc.touched = sc.touched[:0]
	sum := 0
	for i, c := range counts {
		offs[i] = sum
		sum += c
		if c > 0 {
			sc.touched = append(sc.touched, i)
		}
	}
	recs := sc.recs[:n]
	for i, key := range keys {
		idx := hi[i]
		recs[offs[idx]] = storeRec[K]{key: key, pos: i}
		offs[idx]++
	}
	return counts, offs
}

// storeRunBatchMin is the run length at which a key's run switches from
// looping the counter's per-item Add (key lookup already amortized per
// run) to its BulkAdder path. Short runs stay per item: a batch call's
// setup — gathering the run's items, borrowing hash buffers for the call,
// the sink's per-chunk entry — costs more than it saves on a few items.
// Long runs amortize that and win on fused hashing.
const storeRunBatchMin = 64

// AddBatch64 offers record i's item items[i] to key keys[i]'s counter,
// for the whole batch, and returns how many offers changed counter state.
// One batched hash pass routes every key, a counting sort groups records
// stripe-contiguously (original order preserved within each stripe), and
// each touched stripe is claimed whole by one goroutine — the caller, or
// for a batch of ≥ storeHelpMin records an idle process-wide helper (at
// most GOMAXPROCS−1) — and applied under its lock, taken once per batch.
// The call returns only after every record is applied. Within a stripe,
// maximal runs of adjacent same-key records share one key lookup, and
// long runs (≥64 records — exporter flushes, hot keys) go through the
// counter's BulkAdder fast path. Locks are taken with TryLock first and a
// busy stripe is retried after the claimer's others, so concurrent
// batches fan out across stripes instead of convoying.
//
// State-equivalent to calling AddUint64(keys[i], items[i]) in slice
// order: records are never reordered within a key (or at all within a
// stripe), so the resulting counters are bit-identical. The store copies
// any string key it materializes, so callers may reuse the keys' backing
// memory (a decoded frame buffer) across calls. Steady-state batches
// allocate nothing. Safe for concurrent use. Panics if the slices'
// lengths differ.
func (s *Store[K]) AddBatch64(keys []K, items []uint64) int {
	return s.AddBatch64At(time.Time{}, keys, items)
}

// AddBatch64At is AddBatch64 with an explicit record timestamp shared by
// the whole batch (one frame = one capture instant): on a windowed store
// every record lands in ts's sub-window; an unwindowed store ignores ts.
// See AddUint64At for the timestamp contract, the zero time.Time included.
func (s *Store[K]) AddBatch64At(ts time.Time, keys []K, items []uint64) int {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("sbitmap: Store.AddBatch64 with %d keys and %d items", len(keys), len(items)))
	}
	sc := s.getScratch(len(keys))
	if cap(sc.buf64) < len(items) {
		sc.buf64 = make([]uint64, len(items))
	}
	sc.items64 = items
	return s.addBatch(sc, s.resolveWidx(s.tsWidx(ts), len(keys)), keys)
}

// AddBatchString is AddBatch64 for string items; see AddBatch64 for the
// routing, equivalence, and concurrency contract.
func (s *Store[K]) AddBatchString(keys []K, items []string) int {
	return s.AddBatchStringAt(time.Time{}, keys, items)
}

// AddBatchStringAt is AddBatchString with an explicit record timestamp
// shared by the whole batch; see AddBatch64At.
func (s *Store[K]) AddBatchStringAt(ts time.Time, keys []K, items []string) int {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("sbitmap: Store.AddBatchString with %d keys and %d items", len(keys), len(items)))
	}
	sc := s.getScratch(len(keys))
	if cap(sc.bufS) < len(items) {
		sc.bufS = make([]string, len(items))
	}
	sc.itemsS = items
	return s.addBatch(sc, s.resolveWidx(s.tsWidx(ts), len(keys)), keys)
}

// addBatch applies the batch whose items sc holds: it groups the keys,
// offers a large batch to idle helpers, drains, and waits for every
// helper that joined.
func (s *Store[K]) addBatch(sc *storeScratch[K], widx int64, keys []K) int {
	defer s.putScratch(sc)
	s.group(sc, keys)
	sc.widx = widx
	sc.next.Store(0)
	sc.changed.Store(0)
	if len(keys) >= storeHelpMin {
		offerHelpers(sc, &sc.helpers, len(sc.touched)-1)
	}
	sc.drain()
	sc.helpers.Wait()
	return int(sc.changed.Load())
}

// drain claims touched stripes from the batch's cursor until none is
// left, applying each under its lock. A claimed stripe whose lock is
// busy is stacked (through link) and retried after this goroutine's
// other claims; a retry sweep that applies nothing blocks on one of
// them. A drainer holds at most one stripe lock and never blocks while
// holding it, so eviction's TryLocks cannot deadlock.
func (sc *storeScratch[K]) drain() {
	busy := -1
	for j := int(sc.next.Add(1)) - 1; j < len(sc.touched); j = int(sc.next.Add(1)) - 1 {
		if !sc.apply(j, false) {
			sc.link[j], busy = busy, j
		}
	}
	for busy >= 0 {
		j, applied := busy, false
		for busy = -1; j >= 0; {
			next := sc.link[j]
			if sc.apply(j, false) {
				applied = true
			} else {
				sc.link[j], busy = busy, j
			}
			j = next
		}
		if !applied {
			sc.apply(busy, true)
			busy = sc.link[busy]
		}
	}
}

// apply ingests touched slot j's whole stripe segment under the stripe's
// lock, taken with TryLock unless wait, and reports whether it did.
func (sc *storeScratch[K]) apply(j int, wait bool) bool {
	s, i := sc.s, sc.touched[j]
	st := &s.stripes[i]
	if wait {
		st.mu.Lock()
	} else if !st.mu.TryLock() {
		return false
	}
	n := s.ingestLocked(st, sc, sc.offs[i]-sc.counts[i], sc.offs[i])
	st.mu.Unlock()
	sc.changed.Add(int64(n))
	return true
}

// help is a helper's share of the batch; Done releases the caller.
func (sc *storeScratch[K]) help() {
	sc.drain()
	sc.helpers.Done()
}

// storeHelpMin is the smallest batch offered to helpers. A scattered
// record costs ~0.5 µs to apply, and a helper starts claiming only after
// it wakes on another core; at GOMAXPROCS 2 on a 2-vCPU host
// (BenchmarkBatchAddStore with the split forced on and off) helpers
// gained nothing on batches of 32–256 records (≤ ~150 µs of apply) and
// cut 512- and 1,024-record batches by 25% and 33%.
const storeHelpMin = 512

// storeJob is a batch a helper can join: a *storeScratch of any key type.
type storeJob interface{ help() }

// Helpers are process-wide goroutines parked on an unbuffered channel, so
// an offer reaches only an idle one. They are started as offers first
// find fewer than GOMAXPROCS−1 and live as long as the process.
var (
	storeHelperJobs    = make(chan storeJob)
	storeHelperStarted atomic.Int64
)

// offerHelpers offers job to at most limit idle helpers without blocking,
// adding one to wg for each that joins; at GOMAXPROCS 1 it offers none.
func offerHelpers(job storeJob, wg *sync.WaitGroup, limit int) {
	procs := int64(runtime.GOMAXPROCS(0) - 1)
	for n := storeHelperStarted.Load(); n < procs; n = storeHelperStarted.Load() {
		if storeHelperStarted.CompareAndSwap(n, n+1) {
			go func() {
				for job := range storeHelperJobs {
					job.help()
				}
			}()
		}
	}
	for range min(int64(limit), procs) {
		wg.Add(1)
		select {
		case storeHelperJobs <- job:
		default:
			wg.Done()
			return
		}
	}
}

// ingestLocked feeds one stripe's grouped segment sc.recs[start:end] to
// its counters, with the stripe locked: split into maximal adjacent
// same-key runs and materialize each run's counter once.
func (s *Store[K]) ingestLocked(st *storeStripe[K], sc *storeScratch[K], start, end int) int {
	s.touchLocked(st)
	recs, changed := sc.recs[:end], 0
	for j := start; j < end; {
		k := j + 1
		for k < end && recs[k].key == recs[j].key {
			k++
		}
		c := s.slotLocked(st, recs[j].key, sc.widx)
		if sc.itemsS != nil {
			changed += sc.addRunString(c, j, k)
		} else {
			changed += sc.addRun64(c, j, k)
		}
		j = k
	}
	return changed
}

// addRun64 offers one key's run sc.recs[lo:hi] to its counter c: per
// item below storeRunBatchMin, else gathered into the run's own region
// of buf64 and through the batch path. The resulting sketch state is
// bit-identical either way.
func (sc *storeScratch[K]) addRun64(c Counter, lo, hi int) int {
	run, items, changed := sc.recs[lo:hi], sc.items64, 0
	if len(run) < storeRunBatchMin {
		for _, r := range run {
			if c.AddUint64(items[r.pos]) {
				changed++
			}
		}
		return changed
	}
	buf := sc.buf64[lo:hi]
	for i, r := range run {
		buf[i] = items[r.pos]
	}
	return AddBatch64(c, buf)
}

// addRunString is addRun64 for string items.
func (sc *storeScratch[K]) addRunString(c Counter, lo, hi int) int {
	run, items, changed := sc.recs[lo:hi], sc.itemsS, 0
	if len(run) < storeRunBatchMin {
		for _, r := range run {
			if c.AddString(items[r.pos]) {
				changed++
			}
		}
		return changed
	}
	buf := sc.bufS[lo:hi]
	for i, r := range run {
		buf[i] = items[r.pos]
	}
	return AddBatchString(c, buf)
}

// Estimate returns key's distinct-count estimate; ok is false if the key
// has never been seen (or was evicted). Safe for concurrent use.
func (s *Store[K]) Estimate(key K) (estimate float64, ok bool) {
	st := s.stripeFor(key)
	st.mu.Lock()
	c, ok := st.tab.lookup(key)
	if ok {
		estimate = c.Estimate()
	}
	st.mu.Unlock()
	return estimate, ok
}

// EstimateBatch answers Estimate for a whole batch of keys in one routed
// pass: out[i], ok[i] = Estimate(keys[i]). Keys are routed with one
// batched hash pass and grouped stripe-contiguously (the ingest path's
// counting sort), so each touched stripe's lock is taken once per batch
// instead of once per key. Duplicate keys are answered independently.
// The point reads are per-stripe consistent, not globally atomic — the
// multi-key read of a dashboard or rules evaluator, not a snapshot. Safe
// for concurrent use. Panics if the slices' lengths differ.
func (s *Store[K]) EstimateBatch(keys []K, out []float64, ok []bool) {
	if len(keys) != len(out) || len(keys) != len(ok) {
		panic(fmt.Sprintf("sbitmap: Store.EstimateBatch with %d keys, %d out, %d ok",
			len(keys), len(out), len(ok)))
	}
	if len(keys) == 0 {
		return
	}
	sc := s.getScratch(len(keys))
	defer s.putScratch(sc)
	counts, offs := s.group(sc, keys)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		st := &s.stripes[i]
		st.mu.Lock()
		for _, rec := range sc.recs[offs[i]-n : offs[i]] {
			c, hit := st.tab.lookup(rec.key)
			ok[rec.pos] = hit
			if hit {
				out[rec.pos] = c.Estimate()
			} else {
				out[rec.pos] = 0
			}
		}
		st.mu.Unlock()
	}
}

// WindowEstimate is EstimateWindow's answer: the distinct-count estimate
// over the covered interval [Start, End), plus how it was produced.
type WindowEstimate struct {
	// Estimate is the distinct-count estimate over the covered interval.
	Estimate float64
	// Windows is how many live sub-window sketches contributed (at most
	// ceil(span/width); fewer when some covered sub-windows saw no
	// records for the key).
	Windows int
	// Start and End bound the covered interval, derived from the
	// watermark: [Start, End) spans the covering sub-windows, the newest
	// of which (the watermark window) may still be filling.
	Start, End time.Time
	// Tumbling marks the non-mergeable fallback: the base kind (the
	// paper's S-bitmap) cannot union sub-windows, so the estimate is the
	// last complete sub-window's — the paper's own "every minute
	// interval" reporting — regardless of the requested span.
	Tumbling bool
}

// EstimateWindow answers "how many distinct items did key see over the
// trailing span?" on a windowed store. The span is covered by
// n = ceil(span/width) sub-windows ending at the watermark (the newest,
// possibly still-filling sub-window any record has reached — queries
// never consult the wall clock); for Mergeable base kinds the covering
// sketches are unioned at query time, while the S-bitmap falls back to
// tumbling semantics (see WindowEstimate.Tumbling). ok is false if the
// key has never been seen (or was evicted). Errors: ErrNotWindowed when
// the store's spec has no windowed(...) modifier, ErrWindowSpan when
// span is non-positive or exceeds Spec.Retention. Safe for concurrent
// use. Inside ForEach or ForEachDirty, the counter in hand answers the
// same query (WindowCounter).
func (s *Store[K]) EstimateWindow(key K, span time.Duration) (WindowEstimate, bool, error) {
	if s.win == nil {
		return WindowEstimate{}, false, ErrNotWindowed
	}
	var r ringEntries
	st := s.stripeFor(key)
	st.mu.Lock()
	i, ok := st.tab.slotOf(key)
	if ok {
		r = st.tab.ringAt(i)
	}
	we, err := s.win.estimateSpan(r, span)
	st.mu.Unlock()
	if err != nil {
		return WindowEstimate{}, false, err
	}
	return we, ok, nil
}

// WindowState reports a windowed store's time position: the watermark
// sub-window index (the highest any ingested record has reached; the
// watermark window starts at watermark × Spec.Window on the unix epoch
// timeline) and the late-record count (records that arrived more than
// ring sub-windows behind the watermark and were folded into the
// watermark window). ok is false — and both values meaningless — for
// unwindowed stores, and watermark is wmNone's exported guise (a large
// negative number) before any record. A checkpointing server persists
// the watermark and restores it with SetWindowState; snapshot decode
// also re-derives it from ring contents, so the explicit hand-off only
// matters when the watermark window's keys were all removed. Late counts
// are process-lifetime, not persisted.
func (s *Store[K]) WindowState() (watermark, late int64, ok bool) {
	if s.win == nil {
		return 0, 0, false
	}
	return s.wm.Load(), s.late.Load(), true
}

// SetWindowState fast-forwards the watermark (it never moves backwards)
// and, when late is non-negative, seeds the late-record counter. Call
// before concurrent use; no-op on unwindowed stores.
func (s *Store[K]) SetWindowState(watermark, late int64) {
	if s.win == nil {
		return
	}
	if watermark != wmNone {
		s.advanceWatermark(watermark)
	}
	if late >= 0 {
		s.late.Store(late)
	}
}

// LateRecords returns how many records arrived more than ring
// sub-windows behind the watermark and were folded into the watermark
// window (0 for unwindowed stores). Process-lifetime, monotone.
func (s *Store[K]) LateRecords() int64 { return s.late.Load() }

// Len returns the number of live keys. Safe for concurrent use.
func (s *Store[K]) Len() int { return int(s.keys.Load()) }

// Remove deletes key and reports whether it was present. The eviction
// hook does not fire — Remove is the caller's own policy, not the
// store's. Safe for concurrent use.
func (s *Store[K]) Remove(key K) bool {
	st := s.stripeFor(key)
	st.mu.Lock()
	ok := st.tab.remove(key)
	if ok {
		s.touchLocked(st)
		s.keys.Add(-1)
	}
	st.mu.Unlock()
	return ok
}

// ForEach calls fn for every live key until fn returns false. Stripes are
// visited in order, keys within a stripe in an unspecified order. fn runs
// with the key's stripe locked: read the counter, do not mutate it, and
// do not call Store methods (self-deadlock). The counter is valid only
// during fn — an inline slot table hands out one view, rebound key by
// key — while the key stays valid after it. Keys materialized or evicted
// concurrently in not-yet-visited stripes may or may not be seen.
func (s *Store[K]) ForEach(fn func(key K, c Counter) bool) { s.visit(0, fn) }

// ForEachDirty calls fn for every live key in every stripe mutated at or
// after generation since, and returns the cut: the new generation that
// supersedes the scan. since = 0 visits every stripe; since = a previous
// cut visits only the stripes written in between, so a periodic scanner
// (the standing-query evaluator) pays in proportion to write activity,
// not total key count. The generation protocol is MarshalStripes':
// the generation advances before the scan, so a mutation racing the scan
// stamps >= cut and is seen by the next pass even if this one missed it.
// fn runs under the stripe lock with ForEach's contract: read the
// counter, do not mutate it, do not call Store methods (self-deadlock);
// the counter is valid only during fn, the key after it too. Everything
// a scanner needs to read comes with the counter: on a windowed store it
// is a WindowCounter, whose EstimateWindow answers Store.EstimateWindow
// for the key in hand, so a scanner evaluates each key inside fn and
// keeps nothing per key between the scan and its evaluation. fn
// returning false stops the scan early; the returned cut is still
// valid (skipped stripes keep their stamps and stay dirty). Multiple
// scanners with independent since values coexist with each other and
// with checkpointing — each consumer only ever compares stamps against
// its own cuts.
func (s *Store[K]) ForEachDirty(since uint64, fn func(key K, c Counter) bool) (cut uint64) {
	cut = s.gen.Add(1)
	s.visit(since, fn)
	return cut
}

// visit calls fn for every live key of every stripe mutated at or after
// generation since (every stripe when since is 0), one stripe locked at
// a time, until fn returns false.
func (s *Store[K]) visit(since uint64, fn func(key K, c Counter) bool) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.modGen < since {
			st.mu.Unlock()
			continue
		}
		for k, c := range st.tab.all() {
			if !fn(k, c) {
				st.mu.Unlock()
				return
			}
		}
		st.mu.Unlock()
	}
}

// KeyEstimate is one TopK entry.
type KeyEstimate[K StoreKey] struct {
	Key      K
	Estimate float64
}

// TopK returns the k keys with the largest estimates, in descending
// order (ties broken by ascending key) — the heavy-hitter query of
// per-flow monitoring; k above the live key count returns every key. It
// holds one stripe lock at a time and maintains a k-sized heap, so cost
// is O(keys·log k) with O(k) extra memory. The result is a consistent
// ranking only at a quiescent point.
func (s *Store[K]) TopK(k int) []KeyEstimate[K] {
	// Bounding k by the key count bounds the heap's preallocation.
	if k = min(k, s.Len()); k <= 0 {
		return nil
	}
	// Min-heap of the best k seen so far; heap[0] is the current cutoff.
	heap := make([]KeyEstimate[K], 0, k)
	worse := func(a, b KeyEstimate[K]) bool {
		return a.Estimate < b.Estimate || (a.Estimate == b.Estimate && a.Key > b.Key)
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && worse(heap[l], heap[min]) {
				min = l
			}
			if r < len(heap) && worse(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for si := range s.stripes {
		st := &s.stripes[si]
		st.mu.Lock()
		for key, c := range st.tab.all() {
			e := KeyEstimate[K]{Key: key, Estimate: c.Estimate()}
			if len(heap) < k {
				heap = append(heap, e)
				for i := len(heap) - 1; i > 0; {
					p := (i - 1) / 2
					if !worse(heap[i], heap[p]) {
						break
					}
					heap[i], heap[p] = heap[p], heap[i]
					i = p
				}
			} else if worse(heap[0], e) {
				heap[0] = e
				siftDown(0)
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(heap, func(i, j int) bool { return worse(heap[j], heap[i]) })
	return heap
}

// SizeBits returns the summed summary memory of every live counter (the
// paper's accounting). Safe for concurrent use; a consistent total only
// at a quiescent point. A store that keeps words — every S-bitmap,
// HyperLogLog and LogLog store — answers from each stripe's sketch count,
// its keys or its live sub-windows, without walking them.
func (s *Store[K]) SizeBits() int {
	total := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		total += st.tab.sizeBits()
		st.mu.Unlock()
	}
	return total
}

// Footprint returns the store's resident process memory in bytes: the
// stripe array, each stripe's slot table, and the state the store's
// sketches share, counted once. A slot table of words is exact
// arithmetic over its capacities — index, slot chunks, key log, run pool
// — so a store that keeps words answers without walking its keys; a heap
// table adds each heap counter's own footprint. Safe for concurrent use;
// one stripe is locked at a time.
func (s *Store[K]) Footprint() int {
	total := int(unsafe.Sizeof(*s)) + int(unsafe.Sizeof(storeStripe[K]{}))*cap(s.stripes) + s.src.footprint()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		total += st.tab.footprint()
		st.mu.Unlock()
	}
	return total
}

// Reset drops every key and its counter; the eviction hook does not
// fire. Not atomic with respect to concurrent Adds.
func (s *Store[K]) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		s.keys.Add(-int64(st.tab.keys))
		st.tab.reset()
		s.touchLocked(st)
		st.mu.Unlock()
	}
}

// Merge folds other's per-key counters into s by union merge: for every
// key in other, s's counter (materialized if absent, under the usual
// eviction policy) absorbs other's. Both stores must be built from the
// same Spec, and the Spec's kind must implement Mergeable — see
// ErrNotMergeable for which kinds do. other must be quiescent for the
// duration; s may be ingesting concurrently.
func (s *Store[K]) Merge(other *Store[K]) error {
	if other == nil || s == other {
		return nil
	}
	if s.spec != other.spec {
		return fmt.Errorf("sbitmap: merge of stores with different specs (%s vs %s)", s.spec, other.spec)
	}
	// Mergeability is a property of the shared spec; refuse up front so a
	// non-mergeable kind cannot leave s half-mutated (or littered with
	// empty adopted counters). For windowed stores the question is about
	// the base kind — every ring merges structurally, but only by merging
	// same-sub-window sketches.
	if !s.src.mergeable {
		return fmt.Errorf("sbitmap: store of kind %s: %w", s.spec.Kind, ErrNotMergeable)
	}
	if other.win != nil {
		// Adopt the source's time position first so merged-in sub-windows
		// are never beyond s's watermark.
		if owm := other.wm.Load(); owm != wmNone {
			s.advanceWatermark(owm)
		}
	}
	// Each of other's stripes is copied out under its lock
	// (slotTable.detach) and merged in under s's: locks are never held
	// pairwise.
	for i := range other.stripes {
		ot := &other.stripes[i]
		ot.mu.Lock()
		keys := make([]K, 0, ot.tab.keys)
		srcs := make([]Counter, 0, ot.tab.keys)
		for j := range uint32(ot.tab.keys) {
			keys = append(keys, ot.tab.keyOf(ot.tab.slot(j)))
			srcs = append(srcs, ot.tab.detach(j))
		}
		ot.mu.Unlock()
		for j, key := range keys {
			st := s.stripeFor(key)
			st.mu.Lock()
			s.touchLocked(st)
			dst := st.tab.at(s.keyLocked(st, key))
			err := Merge(dst, srcs[j])
			st.mu.Unlock()
			if err != nil {
				return fmt.Errorf("sbitmap: store key %v: %w", key, err)
			}
		}
	}
	return nil
}

// Store snapshot container: the envelope (kindStore) frames a key-typed
// sequence of per-key counter envelopes —
//
//	[0]    key type (1 = uint64, 2 = string)
//	[1:3]  spec length   (little-endian uint16)
//	       spec string   (canonical Spec.String form)
//	[..]   watermark sub-window index (int64 LE) — present only when the
//	       spec is windowed, so pre-window snapshots decode unchanged
//	[..]   key count     (little-endian uint64)
//	per key:
//	       uint64 key    (8 bytes LE)            — key type 1
//	       length-prefixed key bytes (uint32 LE) — key type 2
//	       counter blob length (uint32 LE), counter envelope
//	       (a kindWindowRing envelope when the spec is windowed)
//
// The spec string carries the seed and hash family, so a restored store
// keeps counting without extra options — unlike bare counter snapshots,
// whose hash configuration is supplied out of band. It also carries the
// windowed(...) modifier, which is what gates the watermark field and
// the per-key blob shape: old snapshots never have windowed specs, so
// the extension is backward compatible in both directions.
const (
	storeKeyUint64 = 1
	storeKeyString = 2
)

func storeKeyCode[K StoreKey]() byte {
	if keyIsString[K]() {
		return storeKeyString
	}
	return storeKeyUint64
}

// MarshalBinary implements encoding.BinaryMarshaler: the whole store —
// spec and every (key, counter) pair — in one framed container.
//
// Safe under concurrent writers: each stripe is encoded while holding its
// lock, so every per-key counter blob is internally consistent (never a
// torn read of sketch state) and the snapshot always decodes. Stripes are
// locked one at a time, so the snapshot as a whole is a per-stripe
// point-in-time view: a key ingested concurrently in a not-yet-visited
// stripe may be included, one in an already-visited stripe will not.
// Marshal at a quiescent point for a globally consistent cut (the
// checkpointing server does exactly this per stripe, live).
func (s *Store[K]) MarshalBinary() ([]byte, error) {
	spec := s.spec.String()
	if len(spec) > 0xffff {
		return nil, fmt.Errorf("sbitmap: store spec string %d bytes long", len(spec))
	}
	payload := make([]byte, 0, 16+len(spec)+32*s.Len())
	payload = append(payload, storeKeyCode[K]())
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(spec)))
	payload = append(payload, spec...)
	if s.win != nil {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(s.wm.Load()))
	}
	countAt := len(payload)
	payload = binary.LittleEndian.AppendUint64(payload, 0) // patched below
	count := uint64(0)
	var err error
	s.ForEach(func(key K, c Counter) bool {
		payload, err = s.appendStoreEntry(payload, key, c)
		if err != nil {
			return false
		}
		count++
		return true
	})
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(payload[countAt:], count)
	return appendEnvelope(kindStore, payload), nil
}

// UnmarshalStore reconstructs a Store serialized by MarshalBinary. K must
// match the snapshot's key type. The snapshot's spec string restores the
// seed and hash family, so the store continues counting immediately; opts
// re-apply deployment shape (stripes, key limit), which snapshots do not
// record. A WithMaxKeys limit smaller than the snapshot's key count is an
// error — restoring never silently drops keys.
func UnmarshalStore[K StoreKey](data []byte, opts ...StoreOption) (*Store[K], error) {
	code, spec, payload, err := openStoreSnapshot(data)
	if err != nil {
		return nil, err
	}
	if err := checkKeyCode[K](code, "store"); err != nil {
		return nil, err
	}
	watermark := int64(wmNone)
	if spec.Windowed() {
		if len(payload) < 16 {
			return nil, fmt.Errorf("%w: store watermark", ErrTruncated)
		}
		watermark = int64(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
	count := binary.LittleEndian.Uint64(payload)
	payload = payload[8:]
	s, err := NewStore[K](spec, opts...)
	if err != nil {
		return nil, err
	}
	if watermark != wmNone {
		s.wm.Store(watermark)
	}
	if s.limit > 0 && count > uint64(s.limit) {
		// A restore never silently drops keys; shrinking is the caller's
		// explicit decision (restore unbounded, then Remove or re-limit).
		return nil, fmt.Errorf("sbitmap: store snapshot holds %d keys, above the WithMaxKeys limit %d", count, s.limit)
	}
	if _, err := s.restoreEntries(payload, count, "store"); err != nil {
		return nil, err
	}
	return s, nil
}

// StoreSnapshotSpec returns the Spec a MarshalBinary snapshot names,
// reading only its header. The spec sizes everything decoding the
// snapshot builds, so a receiver that accepts only its own spec refuses
// any other here, before UnmarshalStore allocates by it.
func StoreSnapshotSpec(data []byte) (Spec, error) {
	_, spec, _, err := openStoreSnapshot(data)
	return spec, err
}

// openStoreSnapshot parses a store snapshot's header: it returns the key
// type code, the spec, and the payload after the spec.
func openStoreSnapshot(data []byte) (code byte, spec Spec, rest []byte, err error) {
	payload, err := payloadOfKind(data, kindStore)
	if err != nil {
		return 0, Spec{}, nil, err
	}
	if len(payload) < 11 {
		return 0, Spec{}, nil, fmt.Errorf("%w: store header", ErrTruncated)
	}
	specLen := int(binary.LittleEndian.Uint16(payload[1:]))
	rest = payload[3:]
	if len(rest) < specLen+8 {
		return 0, Spec{}, nil, fmt.Errorf("%w: store spec", ErrTruncated)
	}
	if spec, err = ParseSpec(string(rest[:specLen])); err != nil {
		return 0, Spec{}, nil, fmt.Errorf("sbitmap: store snapshot spec: %w", err)
	}
	return payload[0], spec, rest[specLen:], nil
}

// checkKeyCode refuses a store or stripe snapshot (what names which)
// whose key type code is not K's.
func checkKeyCode[K StoreKey](code byte, what string) error {
	if want := storeKeyCode[K](); code != want {
		kinds := map[byte]string{storeKeyUint64: "uint64", storeKeyString: "string"}
		return fmt.Errorf("sbitmap: %s snapshot has %s keys, not %s", what, kinds[code], kinds[want])
	}
	return nil
}

// restoreEntries adds the count (key, counter) entries of a store or
// stripe snapshot's payload (what names which) and returns how many keys
// it added. A key already present, a key beyond the WithMaxKeys limit
// and bytes after the last entry are errors: restoring never silently
// drops or overwrites keys.
func (s *Store[K]) restoreEntries(payload []byte, count uint64, what string) (int, error) {
	for i := uint64(0); i < count; i++ {
		key, blob, rest, err := decodeStoreEntry[K](payload, i)
		if err != nil {
			return int(i), err
		}
		payload = rest
		dup, err := s.restoreEntry(key, blob)
		if err != nil {
			return int(i), err
		}
		if dup {
			return int(i), fmt.Errorf("sbitmap: %s snapshot repeats key %v", what, key)
		}
		if n := s.keys.Add(1); s.limit > 0 && n > int64(s.limit) {
			return int(i) + 1, fmt.Errorf("sbitmap: %s restore exceeds the WithMaxKeys limit %d", what, s.limit)
		}
	}
	if len(payload) != 0 {
		return int(count), fmt.Errorf("sbitmap: %d trailing bytes after last %s entry", len(payload), what)
	}
	return int(count), nil
}

// appendStoreEntry appends one (key, counter) pair in the container's
// per-key layout — shared by the whole-store snapshot (MarshalBinary) and
// the per-stripe snapshots (MarshalStripes).
func (s *Store[K]) appendStoreEntry(payload []byte, key K, c Counter) ([]byte, error) {
	blob, err := Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("sbitmap: store key %v: %w", key, err)
	}
	if s.isStr {
		ks := keyString(key)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ks)))
		payload = append(payload, ks...)
	} else {
		payload = binary.LittleEndian.AppendUint64(payload, keyWord(key))
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(blob)))
	payload = append(payload, blob...)
	return payload, nil
}

// decodeStoreEntry splits one (key, counter blob) pair off payload and
// returns the remaining payload — the inverse of appendStoreEntry, shared
// by UnmarshalStore and RestoreStripe. i labels truncation errors.
func decodeStoreEntry[K StoreKey](payload []byte, i uint64) (key K, blob, rest []byte, err error) {
	if keyIsString[K]() {
		if len(payload) < 4 {
			return key, nil, nil, fmt.Errorf("%w: store key %d header", ErrTruncated, i)
		}
		klen := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if klen > len(payload) {
			return key, nil, nil, fmt.Errorf("%w: store key %d", ErrTruncated, i)
		}
		key = keyFromString[K](string(payload[:klen]))
		payload = payload[klen:]
	} else {
		if len(payload) < 8 {
			return key, nil, nil, fmt.Errorf("%w: store key %d", ErrTruncated, i)
		}
		key = keyFromWord[K](binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
	if len(payload) < 4 {
		return key, nil, nil, fmt.Errorf("%w: store counter %d header", ErrTruncated, i)
	}
	blen := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if blen > len(payload) {
		return key, nil, nil, fmt.Errorf("%w: store counter %d", ErrTruncated, i)
	}
	return key, payload[:blen], payload[blen:], nil
}

// restoreEntry adds key with the counter its snapshot blob holds, decoded
// by the slot table under the stripe lock, and reports a key already
// present as dup. Restores run before a store serves (UnmarshalStore
// builds a fresh store; a server restores its checkpoint at startup), so
// decoding under the lock delays no ingest. On a windowed store the
// watermark advances to the ring's newest sub-window, so restores
// re-derive the time position from snapshot contents.
func (s *Store[K]) restoreEntry(key K, blob []byte) (dup bool, err error) {
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	i, dup, err := st.tab.restore(key, blob)
	if err == nil && !dup && s.win != nil {
		if maxW := maxWidx(st.tab.ringAt(i)); maxW != wmNone {
			s.advanceWatermark(maxW)
		}
	}
	return dup, err
}

// Per-stripe snapshot format (the unit of an incremental checkpoint):
//
//	[0:4]  magic "SBS1"
//	[4]    version (1)
//	[5]    key type (1 = uint64, 2 = string)
//	[6:14] key count (little-endian uint64)
//	per key: as in the whole-store container (appendStoreEntry)
//
// Unlike the whole-store container there is no spec: a stripe snapshot is
// only meaningful under the checkpoint manifest that names it, and the
// manifest carries the spec once for all stripes.
const (
	stripeSnapMagic   = "SBS1"
	stripeSnapVersion = 1
	stripeSnapHeader  = 14
)

// StripeSnapshotKeys reports how many keys a MarshalStripes blob holds,
// without decoding it — a checkpointer uses this to skip durably writing
// empty stripes.
func StripeSnapshotKeys(blob []byte) (int, error) {
	if len(blob) < stripeSnapHeader || string(blob[:4]) != stripeSnapMagic {
		return 0, fmt.Errorf("sbitmap: not a stripe snapshot")
	}
	return int(binary.LittleEndian.Uint64(blob[6:])), nil
}

// Generation returns the current dirty-tracking generation. Mutations
// stamp their stripe with this value; MarshalStripes(g) encodes exactly
// the stripes stamped at or after g.
func (s *Store[K]) Generation() uint64 { return s.gen.Load() }

// SetGeneration fast-forwards the dirty-tracking generation, so a store
// rebuilt from a checkpoint resumes the writer's epoch: stripes restored
// from the checkpoint stay clean relative to it, and the next incremental
// checkpoint (since = the manifest's generation) captures only what was
// mutated afterwards. Call before concurrent use.
func (s *Store[K]) SetGeneration(g uint64) { s.gen.Store(g) }

// StripeCount returns the number of lock stripes.
func (s *Store[K]) StripeCount() int { return len(s.stripes) }

// DirtyStripes counts the stripes mutated at or after generation since
// (every stripe when since is 0). Safe for concurrent use.
func (s *Store[K]) DirtyStripes(since uint64) int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.modGen >= since {
			n++
		}
		st.mu.Unlock()
	}
	return n
}

// MarshalStripes encodes every stripe mutated at or after generation
// since into its own snapshot blob, keyed by stripe index, and returns
// the cut: the new generation that supersedes the snapshot. since = 0
// takes a full checkpoint (every stripe, touched or not); since = a
// previous cut takes an incremental one whose cost scales with how many
// stripes were written since, not with total key count.
//
// The protocol: mutations stamp their stripe with Generation();
// MarshalStripes advances the generation first, so a mutation landing
// after the cut stamps >= cut and is seen by the next incremental pass
// even if it raced this one. Each stripe is encoded under its own lock
// (internally consistent), but for a globally exact cut — required when
// the snapshot is paired with a log replayed from the cut — the caller
// must quiesce writers across the call, as the checkpointing server's
// ingest gate does.
func (s *Store[K]) MarshalStripes(since uint64) (blobs map[int][]byte, cut uint64, err error) {
	cut = s.gen.Add(1)
	blobs = make(map[int][]byte)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.modGen < since {
			st.mu.Unlock()
			continue
		}
		payload := make([]byte, 0, stripeSnapHeader+48*st.tab.keys)
		payload = append(payload, stripeSnapMagic...)
		payload = append(payload, stripeSnapVersion, storeKeyCode[K]())
		payload = binary.LittleEndian.AppendUint64(payload, uint64(st.tab.keys))
		for k, c := range st.tab.all() {
			payload, err = s.appendStoreEntry(payload, k, c)
			if err != nil {
				st.mu.Unlock()
				return nil, 0, err
			}
		}
		st.mu.Unlock()
		blobs[i] = payload
	}
	return blobs, cut, nil
}

// RestoreStripe decodes one MarshalStripes blob into the store,
// re-hashing every key onto the store's own stripes — the blob's origin
// stripe index is irrelevant, so a snapshot restores correctly even if
// the stripe count changed across restarts (same spec ⇒ same key
// placement within a stripe count). Returns the number of keys restored.
// Keys already present are an error (stripe snapshots from one
// checkpoint are disjoint by construction), as is exceeding a WithMaxKeys
// limit: restoring never silently drops keys.
func (s *Store[K]) RestoreStripe(blob []byte) (int, error) {
	if len(blob) < stripeSnapHeader {
		return 0, fmt.Errorf("%w: stripe snapshot header", ErrTruncated)
	}
	if string(blob[:4]) != stripeSnapMagic {
		return 0, fmt.Errorf("sbitmap: stripe snapshot magic %q, want %q", blob[:4], stripeSnapMagic)
	}
	if blob[4] != stripeSnapVersion {
		return 0, fmt.Errorf("sbitmap: stripe snapshot version %d, want %d", blob[4], stripeSnapVersion)
	}
	if err := checkKeyCode[K](blob[5], "stripe"); err != nil {
		return 0, err
	}
	return s.restoreEntries(blob[stripeSnapHeader:], binary.LittleEndian.Uint64(blob[6:]), "stripe")
}
