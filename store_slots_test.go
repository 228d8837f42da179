package sbitmap

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// slotKey returns the i-th key of the slot tests: lengths 0 to 40 bytes,
// so keys sit on both sides of the inline limit; every 13th and 31st key
// about 100 and 600 bytes, longer than a young key-log chunk and not a
// size class; and every 97th key longer than a full key-log chunk, so it
// gets a chunk of its own.
func slotKey(prefix string, i int) string {
	k := fmt.Sprintf("%s-%d", prefix, i)
	switch {
	case i%97 == 0:
		k += strings.Repeat("L", keyLogChunk+i%7)
	case i%31 == 0:
		k += strings.Repeat("M", 590+i%7)
	case i%13 == 0:
		k += strings.Repeat("U", 90+i%7)
	case i%5 == 0:
		k += strings.Repeat("x", i%29)
	case i%11 == 0:
		k = k[:i%3]
	}
	return k
}

// checkSlotTables verifies every stripe table's invariants: the index
// holds exactly one entry per live slot, every live key is found from its
// own probe hash at the entry naming its slot, a heap table holds one
// counter per live slot, a run pool holds exactly the runs its rings
// reference — each referenced once, its header naming the reference back
// — and the tables' key counts add up to Len.
func checkSlotTables[K StoreKey](t *testing.T, s *Store[K]) {
	t.Helper()
	total := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		tab := st.tab
		entries := 0
		for _, e := range tab.idx {
			if e != 0 {
				entries++
			}
		}
		if entries != tab.keys {
			st.mu.Unlock()
			t.Fatalf("stripe %d: %d index entries for %d keys", i, entries, tab.keys)
		}
		if !tab.words() && len(tab.ctrs) != tab.keys {
			st.mu.Unlock()
			t.Fatalf("stripe %d: %d heap counters for %d keys", i, len(tab.ctrs), tab.keys)
		}
		for j := range uint32(tab.keys) {
			key := tab.keyOf(tab.slot(j))
			pos, ok := tab.find(tab.hash(key), key)
			if !ok || tab.idx[pos] != j+1 {
				st.mu.Unlock()
				t.Fatalf("stripe %d: key %v of slot %d not found through the index", i, key, j)
			}
		}
		if p := tab.rings; p != nil {
			if err := checkRunPool(p, tab.keys); err != nil {
				st.mu.Unlock()
				t.Fatalf("stripe %d: %v", i, err)
			}
		}
		total += tab.keys
		st.mu.Unlock()
	}
	if total != s.Len() {
		t.Fatalf("tables hold %d keys, Len %d", total, s.Len())
	}
}

// checkRunPool checks a run pool against the rings of the first keys
// slots: every live reference names a live run whose owner word names the
// reference back, no run is referenced twice, and every live run is
// referenced.
func checkRunPool(p *runRings, keys int) error {
	seen := make([]bool, p.runs)
	refs := 0
	for j := range uint32(keys) {
		for pos, ref := range p.refs(j) {
			if ref == 0 {
				continue
			}
			run := ref - 1
			switch owner := uint64(j) | uint64(pos)<<32; {
			case int(run) >= p.runs:
				return fmt.Errorf("slot %d entry %d references run %d of %d", j, pos, run, p.runs)
			case seen[run]:
				return fmt.Errorf("run %d referenced twice", run)
			case p.run(run)[runOwner] != owner:
				return fmt.Errorf("run %d names owner %#x, referenced by %#x", run, p.run(run)[runOwner], owner)
			}
			seen[run] = true
			refs++
		}
	}
	if refs != p.runs {
		return fmt.Errorf("%d references for %d live runs", refs, p.runs)
	}
	return nil
}

// slotRecount recounts an inline store's SizeBits and Footprint key by key
// and chunk by chunk: every live counter's bits, and the bytes of every
// slot chunk, index and key-log chunk the tables hold at capacity.
func slotRecount[K StoreKey](s *Store[K]) (sizeBits, footprint int) {
	footprint = int(unsafe.Sizeof(*s)) + int(unsafe.Sizeof(storeStripe[K]{}))*cap(s.stripes) +
		s.stripes[0].tab.v.sb.Footprint()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		tab := st.tab
		footprint += int(unsafe.Sizeof(*tab)) + 4*cap(tab.idx) +
			int(unsafe.Sizeof([]uint64(nil)))*cap(tab.slots.chunks) + int(unsafe.Sizeof([]byte(nil)))*cap(tab.log.chunks)
		for _, c := range tab.slots.chunks {
			footprint += 8 * cap(c)
		}
		for _, c := range tab.log.chunks {
			footprint += cap(c)
		}
		for _, c := range st.tab.all() {
			sizeBits += c.SizeBits()
		}
		st.mu.Unlock()
	}
	return sizeBits, footprint
}

// TestStoreSlotAccountingRecount: an inline store's SizeBits and Footprint,
// kept as per-stripe arithmetic, equal a key-by-key and chunk-by-chunk
// recount after adds, removes (slot moves, chunk drops, key-log
// compaction) and a reset.
func TestStoreSlotAccountingRecount(t *testing.T) {
	s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		checkSlotTables(t, s)
		bits, fp := slotRecount(s)
		if got := s.SizeBits(); got != bits {
			t.Errorf("%s: SizeBits %d, recount %d", stage, got, bits)
		}
		if got := s.Footprint(); got != fp {
			t.Errorf("%s: Footprint %d, recount %d", stage, got, fp)
		}
	}
	check("empty")
	add := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			s.AddUint64(slotKey(prefix, i), uint64(i))
		}
	}
	add("a", 5000)
	check("added")
	for i := 0; i < 5000; i += 3 {
		s.Remove(slotKey("a", i))
	}
	check("removed a third")
	for i := 0; i < 5000; i++ {
		s.Remove(slotKey("a", i))
	}
	check("removed all")
	add("b", 3000)
	check("re-added")
	s.Reset()
	check("reset")
	add("c", 700)
	check("added after reset")
}

// TestStoreSlotChurnReclaims: Remove gives back what a key held — its
// slot to the next key, its log bytes to the next compaction — so a slot
// store whose key set turns over round after round stays the size it
// started at, and stays bit-identical to a heap-counter twin fed the same
// operations. A stripe also holds memory in fixed steps — its last key-log
// chunk (up to 4 KiB) and its last slot chunk's doubling — that move with
// its key count, not with churn; the stripes hold 4,096 keys each, so
// those steps stay near 1% of the footprint and the bound measures
// reclamation. Once every key is removed, both stores are back within
// 8 KiB of an empty store's footprint: the index and the heap-counter
// slice shrink as keys leave.
func TestStoreSlotChurnReclaims(t *testing.T) {
	for _, kind := range []string{"uint64", "string"} {
		t.Run(kind, func(t *testing.T) {
			if kind == "uint64" {
				churn(t, func(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 })
			} else {
				churn(t, func(i int) string { return fmt.Sprintf("user-%06x", i) })
			}
		})
	}
}

func churn[K StoreKey](t *testing.T, key func(int) K) {
	const keys, rounds = 4 * 4096, 20
	s, err := NewStore[K](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewStore[K](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	forceHeapCounters(twin)
	live := make([]int, 0, keys)
	next := 0
	add := func(n int) {
		bk := make([]K, 0, 8*n)
		bi := make([]uint64, 0, 8*n)
		for range n {
			for j := range 8 {
				bk = append(bk, key(next))
				bi = append(bi, uint64(next*8+j))
			}
			live = append(live, next)
			next++
		}
		s.AddBatch64(bk, bi)
		twin.AddBatch64(bk, bi)
	}
	add(keys)
	base := s.Footprint()
	for round := 1; round <= rounds; round++ {
		kept := live[:0]
		for j, i := range live {
			if (j+round)%2 == 0 {
				if !s.Remove(key(i)) || !twin.Remove(key(i)) {
					t.Fatalf("round %d: key %v not removable", round, key(i))
				}
			} else {
				kept = append(kept, i)
			}
		}
		live = kept
		add(keys - len(live))
		checkSlotTables(t, s)
		assertStoresIdentical(t, s, twin)
		fp := s.Footprint()
		t.Logf("round %d: footprint %d B (round 0: %d)", round, fp, base)
		if float64(fp) > 1.05*float64(base) || float64(fp) < 0.95*float64(base) {
			t.Fatalf("round %d: footprint %d B, more than 5%% off round 0's %d", round, fp, base)
		}
	}
	for _, i := range live {
		if !s.Remove(key(i)) || !twin.Remove(key(i)) {
			t.Fatalf("key %v not removable", key(i))
		}
	}
	checkSlotTables(t, s)
	checkSlotTables(t, twin)
	empty, err := NewStore[K](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	emptyTwin, err := NewStore[K](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	forceHeapCounters(emptyTwin)
	for _, c := range []struct {
		name        string
		fp, emptyFp int
	}{
		{"inline", s.Footprint(), empty.Footprint()},
		{"heap-counter twin", twin.Footprint(), emptyTwin.Footprint()},
	} {
		t.Logf("%s: footprint %d B with every key removed, %d B empty", c.name, c.fp, c.emptyFp)
		if c.fp > c.emptyFp+8<<10 {
			t.Errorf("%s: footprint %d B with every key removed, more than 8 KiB above an empty store's %d B", c.name, c.fp, c.emptyFp)
		}
	}
}

// TestStoreSlotRemovalShrinksChunks: a stripe's last slot chunk — and a
// windowed store's last run-pool chunk — shrinks as its keys leave, so a
// store that lost 99% of its keys holds about what a fresh store of the
// survivors does. 100,000 keys over 64 stripes, 99% of them removed:
// Footprint must be within 3× of a fresh store holding the same 1,000
// keys (it read 32× for sbitmap and 10× for exact while a last chunk kept
// its peak capacity), the tables and run pools intact, and the store
// still identical to its heap-counter twin. Each key of the windowed
// store holds three sub-window runs.
func TestStoreSlotRemovalShrinksChunks(t *testing.T) {
	const keys = 100_000
	key := func(i int) string { return fmt.Sprintf("user-%06x", i) }
	for _, spec := range []string{"sbitmap:n=1e4,eps=0.1", "exact", "hll:mbits=512/windowed(width=1s,ring=5)"} {
		t.Run(spec, func(t *testing.T) {
			var stores [3]*Store[string]
			for j := range stores {
				var err error
				if stores[j], err = NewStore[string](MustSpec(spec)); err != nil {
					t.Fatal(err)
				}
			}
			s, twin, fresh := stores[0], stores[1], stores[2]
			forceHeapCounters(twin)
			windows := 1
			if s.Spec().Windowed() {
				windows = 3
			}
			add := func(s *Store[string], i int) {
				for w := range windows {
					s.AddUint64At(time.Unix(int64(w), 0), key(i), uint64(i))
				}
			}
			for i := range keys {
				add(s, i)
				add(twin, i)
			}
			for i := range keys {
				if i%100 == 0 {
					add(fresh, i)
				} else if !s.Remove(key(i)) || !twin.Remove(key(i)) {
					t.Fatalf("key %s not removable", key(i))
				}
			}
			checkSlotTables(t, s)
			checkSlotTables(t, twin)
			assertStoresIdentical(t, s, twin)
			got, want := s.Footprint(), fresh.Footprint()
			t.Logf("footprint %d B after removing 99%% of %d keys, %d B fresh", got, keys, want)
			if got > 3*want {
				t.Errorf("footprint %d B after removing 99%% of %d keys, more than 3× a fresh store's %d B", got, keys, want)
			}
		})
	}
}

// TestStoreSlotProbeChainRemove: deleting from the head, the middle and
// the tail of a probe chain — keys whose probe hashes share a home in a
// small index, wrapping past its end, with a key of the next home
// displaced behind them — leaves every survivor findable, its counter
// intact.
func TestStoreSlotProbeChainRemove(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	const size = slotIndexMin // holds up to 6 keys before it grows
	for _, home := range []uint32{0, 3, size - 2} {
		for _, order := range [][]int{{0, 2, 4}, {4, 2, 0}, {2, 0, 4}} {
			name := fmt.Sprintf("home=%d/order=%v", home, order)
			t.Run(name, func(t *testing.T) {
				s, err := NewStore[uint64](spec, WithStripes(1))
				if err != nil {
					t.Fatal(err)
				}
				twin, err := NewStore[uint64](spec, WithStripes(1))
				if err != nil {
					t.Fatal(err)
				}
				forceHeapCounters(twin)
				// The probe hash's seed is the table's own: find the chain
				// in this table.
				tab := s.stripes[0].tab
				homeOf := func(k uint64) uint32 { return uint32(tab.hash(k)) & (size - 1) }
				var chain []uint64
				var other uint64
				found := false
				for k := uint64(1); len(chain) < 5 || !found; k++ {
					switch h := homeOf(k); {
					case h == home && len(chain) < 5:
						chain = append(chain, k)
					case h == (home+1)&(size-1) && !found:
						other, found = k, true
					}
				}
				keys := append(append([]uint64{}, chain...), other)
				for i, k := range keys {
					for j := range 3 * (i + 1) {
						s.AddUint64(k, uint64(j))
						twin.AddUint64(k, uint64(j))
					}
				}
				if n := len(tab.idx); n != size {
					t.Fatalf("index of %d entries, want %d", n, size)
				}
				for _, o := range order {
					if !s.Remove(chain[o]) || !twin.Remove(chain[o]) {
						t.Fatalf("chain key %d not removable", o)
					}
					if _, ok := s.Estimate(chain[o]); ok {
						t.Fatalf("chain key %d found after its removal", o)
					}
					checkSlotTables(t, s)
					assertStoresIdentical(t, s, twin)
				}
			})
		}
	}
}

// TestStoreSlotRouterCollisionsSpread: keys whose router hashes share
// their low bits do not share a probe chain. The router's seed is part of
// the Spec, which the service reports, so a client can pick such keys
// offline; a slot index probed from the router hash would put all of them
// in one cluster, and every insert and every warm record would walk it.
// The index probes from a hash under a seed of its own instead: 2,048 keys
// whose router hashes share their low 12 bits — one cluster of about
// 2,048 entries in the 4,096-entry index they fill, a mean displacement
// near 1,000, if the router hash placed them — sit a mean under 4 entries
// from home (linear probing's expectation at load 1/2 is 0.5).
func TestStoreSlotRouterCollisionsSpread(t *testing.T) {
	const keys, bits = 2048, 12
	t.Run("uint64", func(t *testing.T) {
		s, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(1))
		if err != nil {
			t.Fatal(err)
		}
		for k, added := uint64(0), 0; added < keys; k++ {
			if s.hashKey(k)&(1<<bits-1) == 0 {
				s.AddUint64(k, k)
				added++
			}
		}
		checkProbeSpread(t, s, bits)
	})
	t.Run("string", func(t *testing.T) {
		s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(1))
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte("src-")
		for i, added := uint64(0), 0; added < keys; i++ {
			buf = strconv.AppendUint(buf[:4], i, 10)
			if k := unsafe.String(&buf[0], len(buf)); s.hashKey(k)&(1<<bits-1) == 0 {
				s.AddUint64(k, i)
				added++
			}
		}
		checkProbeSpread(t, s, bits)
	})
}

// checkProbeSpread fails the test unless s's one slot table holds its
// keys a mean under 4 index entries from their homes, in an index of at
// most 2^bits entries: one the keys' shared low router-hash bits would
// crowd into a single cluster.
func checkProbeSpread[K StoreKey](t *testing.T, s *Store[K], bits int) {
	t.Helper()
	checkSlotTables(t, s)
	tab := s.stripes[0].tab
	if len(tab.idx) > 1<<bits {
		t.Fatalf("index of %d entries: the keys' shared %d router-hash bits would not crowd it", len(tab.idx), bits)
	}
	mask := uint32(len(tab.idx) - 1)
	total, longest := 0, 0
	for pos, e := range tab.idx {
		if e != 0 {
			d := int((uint32(pos) - uint32(tab.slot(e - 1)[0])) & mask)
			total += d
			longest = max(longest, d)
		}
	}
	mean := float64(total) / float64(tab.keys)
	t.Logf("%d keys in a %d-entry index: mean displacement %.2f, longest %d", tab.keys, len(tab.idx), mean, longest)
	if mean >= 4 {
		t.Errorf("mean displacement %.2f entries, want < 4: keys chosen by their router hash share probe chains", mean)
	}
}
