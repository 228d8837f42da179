package rules

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	sbitmap "repro"
)

// refEngine is the reference tick: the two-phase evaluation the engine
// ran before it evaluated rules inside the dirty scan. Phase 1 re-reads
// tracked keys; phase 2 collects every dirty (key, estimate) pair first
// and then evaluates each rule against the collected pairs in turn, a
// windowed rule reading each key again through Store.EstimateWindow. It
// keeps its own compiled rules, cut and alerts over the same store as
// the engine under test — independent ForEachDirty cuts coexist — so
// both must produce the same alerts and TickResults.
type refEngine struct {
	store   *sbitmap.Store[string]
	rules   []*rule
	lastCut uint64
	alerts  map[string][]Alert // per rule, in emission order
}

func newRefEngine(t *testing.T, store *sbitmap.Store[string], specs []Spec) *refEngine {
	t.Helper()
	f := &refEngine{store: store, alerts: make(map[string][]Alert)}
	for _, spec := range specs {
		r, err := compile(spec, store.Spec())
		if err != nil {
			t.Fatal(err)
		}
		f.rules = append(f.rules, r)
	}
	return f
}

func (f *refEngine) value(r *rule, key string) (float64, bool) {
	if r.window > 0 {
		we, ok, err := f.store.EstimateWindow(key, r.window)
		if err != nil || !ok {
			return 0, false
		}
		return we.Estimate, true
	}
	return f.store.Estimate(key)
}

func (f *refEngine) transition(r *rule, key string, ks *keyState, val float64, nowN int64) (fired, resolved int) {
	if ks.firing {
		if val < r.threshold*(1-r.hysteresis) {
			ks.firing = false
			f.alerts[r.spec.ID] = append(f.alerts[r.spec.ID], Alert{
				Rule: r.spec.ID, Key: key, State: StateResolved,
				Estimate: val, Threshold: r.threshold, UnixNano: nowN,
			})
			return 0, 1
		}
		return 0, 0
	}
	if val > r.threshold && nowN-ks.lastFired >= int64(r.cooldown) {
		ks.firing = true
		ks.lastFired = nowN
		f.alerts[r.spec.ID] = append(f.alerts[r.spec.ID], Alert{
			Rule: r.spec.ID, Key: key, State: StateFiring,
			Estimate: val, Threshold: r.threshold, UnixNano: nowN,
		})
		return 1, 0
	}
	return 0, 0
}

func (f *refEngine) tick(now time.Time) TickResult {
	nowN := now.UnixNano()
	var res TickResult
	needScan := false
	for _, r := range f.rules {
		if r.spec.Type != TypeThreshold {
			needScan = true
		}
		if r.spec.Type == TypeMovers {
			continue
		}
		for key, ks := range r.keys {
			val, _ := f.value(r, key)
			fi, rv := f.transition(r, key, ks, val, nowN)
			res.Fired += fi
			res.Resolved += rv
			if r.spec.Type == TypePrefix && !ks.firing && nowN-ks.lastFired >= int64(r.cooldown) {
				delete(r.keys, key)
			}
		}
	}
	if !needScan {
		return res
	}
	type pair struct {
		key string
		est float64
	}
	var scan []pair
	f.lastCut = f.store.ForEachDirty(f.lastCut, func(k string, c sbitmap.Counter) bool {
		scan = append(scan, pair{k, c.Estimate()})
		return true
	})
	res.Scanned = len(scan)
	for _, r := range f.rules {
		switch r.spec.Type {
		case TypePrefix:
			for _, se := range scan {
				if r.prefix != "" && !strings.HasPrefix(se.key, r.prefix) {
					continue
				}
				val := se.est
				if r.window > 0 {
					val, _ = f.value(r, se.key)
				}
				ks, tracked := r.keys[se.key]
				if !tracked {
					if val <= r.threshold {
						continue
					}
					ks = &keyState{}
					r.keys[se.key] = ks
				}
				fi, rv := f.transition(r, se.key, ks, val, nowN)
				res.Fired += fi
				res.Resolved += rv
			}
		case TypeMovers:
			var cands []mover
			for _, se := range scan {
				if r.prefix != "" && !strings.HasPrefix(se.key, r.prefix) {
					continue
				}
				val := se.est
				if r.window > 0 {
					val, _ = f.value(r, se.key)
				}
				delta := val - r.prev[se.key]
				r.prev[se.key] = val
				if !r.baselined || delta <= 0 || delta < r.minDelta {
					continue
				}
				cands = append(cands, mover{key: se.key, val: val, delta: delta})
			}
			if !r.baselined {
				r.baselined = true
				continue
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].delta != cands[j].delta {
					return cands[i].delta > cands[j].delta
				}
				return cands[i].key < cands[j].key
			})
			if len(cands) > r.k {
				cands = cands[:r.k]
			}
			for _, m := range cands {
				ks, ok := r.keys[m.key]
				if !ok {
					ks = &keyState{}
					r.keys[m.key] = ks
				}
				if ks.lastFired != 0 && nowN-ks.lastFired < int64(r.cooldown) {
					continue
				}
				ks.lastFired = nowN
				f.alerts[r.spec.ID] = append(f.alerts[r.spec.ID], Alert{
					Rule: r.spec.ID, Key: m.key, State: StateFiring,
					Estimate: m.val, Delta: m.delta, UnixNano: nowN,
				})
				res.Fired++
			}
			for key, ks := range r.keys {
				if nowN-ks.lastFired >= int64(r.cooldown) {
					delete(r.keys, key)
				}
			}
		}
	}
	return res
}

// sameAlert compares what an alert says: key, state, estimate bits,
// threshold and delta (IDs differ, because the engine interleaves rules).
func sameAlert(a, b Alert) bool {
	return a.Rule == b.Rule && a.Key == b.Key && a.State == b.State &&
		math.Float64bits(a.Estimate) == math.Float64bits(b.Estimate) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta) && a.UnixNano == b.UnixNano
}

// TestTickMatchesTwoPhaseReference runs the engine and refEngine over one
// store through random ingest, removals and (on the windowed store)
// rotating sub-windows, and requires every tick's TickResult and every
// rule's alerts to be equal. Phase 1 walks a map in both, so a rule's
// alerts within one tick compare in key order; a movers rule's, which
// phase 1 never emits, compare in emission order.
func TestTickMatchesTwoPhaseReference(t *testing.T) {
	common := []Spec{
		{ID: "all", Type: TypePrefix, Threshold: 150, Cooldown: "2s"},
		{ID: "pre", Type: TypePrefix, Prefix: "a-", Threshold: 100, Hysteresis: f64(0)},
		{ID: "mov", Type: TypeMovers, K: 3, MinDelta: 20, Cooldown: "3s"},
		{ID: "mov-a", Type: TypeMovers, Prefix: "a-", K: 2},
		{ID: "thr", Type: TypeThreshold, Key: "a-001", Threshold: 120},
	}
	windowed := []Spec{
		{ID: "pre-w", Type: TypePrefix, Threshold: 60, Window: "2m"},
		{ID: "pre-wa", Type: TypePrefix, Prefix: "a-", Threshold: 40, Window: "1m", Hysteresis: f64(0.3)},
		{ID: "mov-w", Type: TypeMovers, K: 3, MinDelta: 5, Window: "1m"},
		{ID: "mov-wb", Type: TypeMovers, Prefix: "b-", K: 1, Window: "5m", Cooldown: "2s"},
		{ID: "thr-w", Type: TypeThreshold, Key: "b-002", Threshold: 50, Window: "3m"},
	}
	for _, tc := range []struct {
		spec  string
		rules []Spec
	}{
		{"sbitmap:n=1e4,eps=0.1", common},
		{"hll:mbits=512", common},
		{"hll:mbits=512/windowed(width=1m,ring=5)", append(slices.Clone(common), windowed...)},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			st := newStore(t, tc.spec)
			e := New(st, Config{})
			for _, spec := range tc.rules {
				if _, err := e.Put(spec); err != nil {
					t.Fatal(err)
				}
			}
			ch, cancel := e.Subscribe(1 << 14) // more than any tick here emits
			defer cancel()
			ref := newRefEngine(t, st, tc.rules)

			rng := rand.New(rand.NewPCG(7, uint64(len(tc.spec))))
			key := func() string {
				return fmt.Sprintf("%c-%03d", "ab"[rng.IntN(2)], rng.IntN(96))
			}
			ts := time.Unix(0, 100*int64(time.Minute))
			item := 0
			fired, resolved, scanned := 0, 0, 0
			const ticks = 80
			for i := 0; i < ticks; i++ {
				ts = ts.Add(time.Duration(rng.IntN(45)) * time.Second)
				if i%9 != 4 { // every ninth round is quiescent
					for range 1 + rng.IntN(24) {
						k := key()
						for range 1 + rng.IntN(60) {
							st.AddStringAt(ts, k, fmt.Sprint("item-", item))
							item++
						}
					}
					if rng.IntN(4) == 0 {
						st.Remove(key())
					}
				}
				now := time.Unix(int64(50000+i), 0)
				got, want := e.Tick(now), ref.tick(now)
				if got.Scanned != want.Scanned || got.Fired != want.Fired || got.Resolved != want.Resolved {
					t.Fatalf("tick %d: engine %+v, reference %+v", i, got, want)
				}
				fired, resolved, scanned = fired+got.Fired, resolved+got.Resolved, scanned+got.Scanned

				emitted := make(map[string][]Alert)
				for len(ch) > 0 {
					a := <-ch
					emitted[a.Rule] = append(emitted[a.Rule], a)
				}
				for _, spec := range tc.rules {
					g, w := emitted[spec.ID], ref.alerts[spec.ID]
					ref.alerts[spec.ID] = nil
					if spec.Type != TypeMovers {
						byKey := func(a, b Alert) int { return strings.Compare(a.Key, b.Key) }
						slices.SortFunc(g, byKey)
						slices.SortFunc(w, byKey)
					}
					if !slices.EqualFunc(g, w, sameAlert) {
						t.Fatalf("tick %d, rule %s:\nengine    %+v\nreference %+v", i, spec.ID, g, w)
					}
				}
			}
			if e.Stats().StreamDropped != 0 {
				t.Fatal("the subscription dropped alerts")
			}
			if fired == 0 || resolved == 0 || scanned == 0 {
				t.Fatalf("the trace exercised too little: %d fired, %d resolved, %d scanned", fired, resolved, scanned)
			}
			t.Logf("%d ticks: %d keys scanned, %d fired, %d resolved", ticks, scanned, fired, resolved)
		})
	}
}

// TestTickHoldsNoPerKeyMemory: a tick evaluates every key inside the
// dirty scan, so a full scan allocates nothing per key, cold or warm.
// Warm ticks count the fewest allocations of three, so an allocation the
// runtime makes on no tick's account (a finalizer, say) does not count.
func TestTickHoldsNoPerKeyMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements skipped under -race")
	}
	build := func(n int) (*sbitmap.Store[string], *Engine, []string) {
		st := newStore(t, "sbitmap:n=1e4,eps=0.1")
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("user-%06d", i)
			st.AddUint64(keys[i], uint64(i))
		}
		e := New(st, Config{})
		if _, err := e.Put(Spec{ID: "spread", Type: TypePrefix, Prefix: "user-", Threshold: 500}); err != nil {
			t.Fatal(err)
		}
		return st, e, keys
	}
	tick := func(e *Engine, n int) (bytes, mallocs uint64) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := e.Tick(time.Unix(1, 0))
		runtime.ReadMemStats(&after)
		if res.Scanned != n || res.Fired != 0 {
			t.Fatalf("tick over %d keys: %+v", n, res)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	warm := make(map[int]uint64)
	for _, n := range []int{1024, 65536} {
		st, e, keys := build(n)
		cold, _ := tick(e, n)
		if n == 65536 && cold >= 64<<10 {
			t.Fatalf("the first full tick over %d keys allocated %d B, want < 64 KiB", n, cold)
		}
		warm[n] = math.MaxUint64
		for round := range 3 {
			for i, k := range keys { // dirty every stripe again
				st.AddUint64(k, uint64((round+1)*n+i))
			}
			_, m := tick(e, n)
			warm[n] = min(warm[n], m)
		}
		t.Logf("%d keys: first tick %d B, warm tick %d allocations", n, cold, warm[n])
	}
	if warm[1024] != warm[65536] {
		t.Fatalf("a warm tick made %d allocations at 1,024 keys and %d at 65,536", warm[1024], warm[65536])
	}
}

// TestWindowedPrefixRule: a windowed prefix rule reads the key's window
// estimate in the scan — it stays quiet while only the full ring is above
// T, fires when the window is, and resolves as the window slides past,
// while the full-ring estimate stays above T.
func TestWindowedPrefixRule(t *testing.T) {
	st := newStore(t, "hll:mbits=512/windowed(width=1m,ring=5)")
	e := New(st, Config{})
	if _, err := e.Put(Spec{ID: "w", Type: TypePrefix, Threshold: 1000, Window: "1m"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put(Spec{ID: "ring", Type: TypePrefix, Threshold: 1000}); err != nil {
		t.Fatal(err)
	}
	minute := func(m int) time.Time { return time.Unix(0, int64(m)*int64(time.Minute)+int64(10*time.Second)) }
	item := 0
	add := func(m, n int) {
		for range n {
			st.AddStringAt(minute(m), "k", fmt.Sprint("item-", item))
			item++
		}
	}
	window := func() float64 {
		we, ok, err := st.EstimateWindow("k", time.Minute)
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		return we.Estimate
	}
	alerts := func(rule string) []Alert {
		var out []Alert
		for _, a := range e.Alerts(0) {
			if a.Rule == rule {
				out = append(out, a)
			}
		}
		slices.Reverse(out)
		return out
	}

	// 600 items in each of two minutes: the full ring reads about 1,200,
	// the one-minute window about 600.
	add(100, 600)
	add(101, 600)
	if r := e.Tick(time.Unix(1, 0)); r.Scanned != 1 {
		t.Fatalf("first tick %+v", r)
	}
	if a := alerts("w"); len(a) != 0 {
		t.Fatalf("the windowed rule fired on the full ring: %+v", a)
	}
	if a := alerts("ring"); len(a) != 1 || a[0].State != StateFiring {
		t.Fatalf("the unwindowed rule: %+v", a)
	}

	// 900 more in the watermark minute: the window crosses.
	add(101, 900)
	want := window()
	if r := e.Tick(time.Unix(2, 0)); r.Fired != 1 {
		t.Fatalf("crossing tick %+v", r)
	}
	a := alerts("w")
	if len(a) != 1 || a[0].State != StateFiring || math.Float64bits(a[0].Estimate) != math.Float64bits(want) {
		t.Fatalf("windowed firing %+v, want estimate %v", a, want)
	}

	// The window slides on to minute 102, which holds one item.
	add(102, 1)
	want = window()
	if r := e.Tick(time.Unix(3, 0)); r.Resolved != 1 {
		t.Fatalf("sliding tick %+v", r)
	}
	a = alerts("w")
	if len(a) != 2 || a[1].State != StateResolved || math.Float64bits(a[1].Estimate) != math.Float64bits(want) {
		t.Fatalf("windowed resolution %+v, want estimate %v", a, want)
	}
	if full, _ := st.Estimate("k"); full <= 1000 {
		t.Fatalf("full-ring estimate %v fell below T", full)
	}
	if a := alerts("ring"); len(a) != 1 {
		t.Fatalf("the unwindowed rule resolved: %+v", a)
	}
}

// TestObserveIngestSkipsUnwatchedBatches: a batch with no watched key
// does not wait for the engine lock, so it does not wait out a tick.
func TestObserveIngestSkipsUnwatchedBatches(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	if _, err := e.Put(Spec{ID: "hot", Type: TypeThreshold, Key: "spike", Threshold: 100}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ObserveIngest([]string{"other", "more"}, time.Unix(1, 0), 0xbeef)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ObserveIngest of unwatched keys waited for the engine lock")
	}
	e.mu.Unlock()
}

// TestTickConcurrency runs stamped ingest that rotates sub-windows with
// its ObserveIngest calls, ticks with windowed prefix and movers rules,
// and rule installs and deletes all at once (run under -race in CI).
func TestTickConcurrency(t *testing.T) {
	st := newStore(t, "hll:mbits=512/windowed(width=1m,ring=5)")
	e := New(st, Config{})
	specs := []Spec{
		{ID: "pre-w", Type: TypePrefix, Prefix: "k-", Threshold: 50, Window: "2m"},
		{ID: "mov-w", Type: TypeMovers, K: 4, Window: "1m"},
		{ID: "mov", Type: TypeMovers, K: 2, MinDelta: 3},
		{ID: "thr-w", Type: TypeThreshold, Key: "k-3", Threshold: 40, Window: "1m"},
	}
	for _, spec := range specs {
		if _, err := e.Put(spec); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // ingest
		defer wg.Done()
		keys := make([]string, 8)
		for i := 0; i < rounds; i++ {
			ts := time.Unix(0, int64(100+i/20)*int64(time.Minute))
			for j := range keys {
				keys[j] = fmt.Sprintf("k-%d", (i+j)%16)
				st.AddStringAt(ts, keys[j], fmt.Sprint(i, "-", j))
			}
			e.ObserveIngest(keys, time.Unix(int64(i), 0), uintptr(unsafe.Pointer(&keys)))
		}
	}()
	go func() { // ticks
		defer wg.Done()
		for i := 0; i < rounds/3; i++ {
			e.Tick(time.Unix(int64(i), 0))
		}
	}()
	go func() { // rule churn
		defer wg.Done()
		for i := 0; i < rounds/3; i++ {
			spec := specs[(i/2)%len(specs)] // deleted, then put back
			if i%2 == 0 {
				if err := e.Delete(spec.ID); err != nil {
					t.Error(err)
					return
				}
			} else if _, err := e.Put(spec); err != nil {
				t.Error(err)
				return
			}
			_ = e.Stats()
		}
	}()
	wg.Wait()
	e.Tick(time.Unix(rounds, 0))
}
