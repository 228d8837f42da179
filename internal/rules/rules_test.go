package rules

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	sbitmap "repro"
)

func newStore(t *testing.T, spec string) *sbitmap.Store[string] {
	t.Helper()
	s, err := sbitmap.NewStore[string](sbitmap.MustSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addDistinct feeds key n distinct items tagged by salt, so repeated
// calls with different salts keep adding new distinct items.
func addDistinct(s *sbitmap.Store[string], key string, n int, salt string) {
	for i := 0; i < n; i++ {
		s.AddString(key, fmt.Sprintf("%s-item-%d", salt, i))
	}
}

func f64(v float64) *float64 { return &v }

func TestSpecValidation(t *testing.T) {
	plain := sbitmap.MustSpec("exact")
	windowed := sbitmap.MustSpec("exact/windowed(width=1m,ring=5)")
	cases := []struct {
		name  string
		spec  Spec
		store sbitmap.Spec
		field string // expected BadRuleError field; "" = valid
	}{
		{"threshold ok", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10}, plain, ""},
		{"prefix ok", Spec{ID: "r", Type: TypePrefix, Prefix: "10.", Threshold: 10}, plain, ""},
		{"prefix all keys ok", Spec{ID: "r", Type: TypePrefix, Threshold: 10}, plain, ""},
		{"movers ok", Spec{ID: "r", Type: TypeMovers, K: 5, MinDelta: 2}, plain, ""},
		{"windowed threshold ok", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, Window: "3m"}, windowed, ""},
		{"missing id", Spec{Type: TypeThreshold, Key: "k", Threshold: 10}, plain, "id"},
		{"missing type", Spec{ID: "r", Key: "k", Threshold: 10}, plain, "type"},
		{"bad type", Spec{ID: "r", Type: "sometimes", Threshold: 10}, plain, "type"},
		{"threshold missing key", Spec{ID: "r", Type: TypeThreshold, Threshold: 10}, plain, "key"},
		{"threshold with prefix", Spec{ID: "r", Type: TypeThreshold, Key: "k", Prefix: "p", Threshold: 10}, plain, "prefix"},
		{"threshold not positive", Spec{ID: "r", Type: TypeThreshold, Key: "k"}, plain, "threshold"},
		{"threshold with k", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, K: 3}, plain, "k"},
		{"prefix with key", Spec{ID: "r", Type: TypePrefix, Key: "k", Threshold: 10}, plain, "key"},
		{"movers without k", Spec{ID: "r", Type: TypeMovers}, plain, "k"},
		{"movers with threshold", Spec{ID: "r", Type: TypeMovers, K: 3, Threshold: 5}, plain, "threshold"},
		{"movers negative min_delta", Spec{ID: "r", Type: TypeMovers, K: 3, MinDelta: -1}, plain, "min_delta"},
		{"hysteresis out of range", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, Hysteresis: f64(1)}, plain, "hysteresis"},
		{"negative hysteresis", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, Hysteresis: f64(-0.1)}, plain, "hysteresis"},
		{"bad cooldown", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, Cooldown: "soon"}, plain, "cooldown"},
		{"bad window", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, Window: "-1m"}, windowed, "window"},
		{"window beyond retention", Spec{ID: "r", Type: TypeThreshold, Key: "k", Threshold: 10, Window: "6m"}, windowed, "window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compile(tc.spec, tc.store)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			var bad *BadRuleError
			if !errors.As(err, &bad) {
				t.Fatalf("got %v, want *BadRuleError", err)
			}
			if bad.Field != tc.field {
				t.Fatalf("rejected on field %q (%s), want %q", bad.Field, bad.Reason, tc.field)
			}
		})
	}
}

// TestWindowRuleOnUnwindowedStore: the typed error the server maps to
// window_not_configured, distinct from plain bad_rule.
func TestWindowRuleOnUnwindowedStore(t *testing.T) {
	e := New(newStore(t, "exact"), Config{})
	_, err := e.Put(Spec{ID: "w", Type: TypeThreshold, Key: "k", Threshold: 10, Window: "1m"})
	if !errors.Is(err, sbitmap.ErrNotWindowed) {
		t.Fatalf("got %v, want ErrNotWindowed", err)
	}
	var bad *BadRuleError
	if errors.As(err, &bad) {
		t.Fatal("window-on-unwindowed must not be a generic BadRuleError")
	}
}

func TestThresholdFireAndResolve(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	if _, err := e.Put(Spec{ID: "t", Type: TypeThreshold, Key: "alice", Threshold: 100}); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)

	// Below threshold: nothing.
	addDistinct(st, "alice", 50, "a")
	if r := e.Tick(now); r.Fired != 0 {
		t.Fatalf("fired %d below threshold", r.Fired)
	}
	// Crossing fires exactly once; staying above does not re-fire.
	addDistinct(st, "alice", 100, "b")
	if r := e.Tick(now.Add(time.Second)); r.Fired != 1 {
		t.Fatalf("crossing fired %d alerts, want 1", r.Fired)
	}
	if r := e.Tick(now.Add(2 * time.Second)); r.Fired != 0 {
		t.Fatalf("steady state fired %d", r.Fired)
	}
	alerts := e.Alerts(0)
	if len(alerts) != 1 || alerts[0].State != StateFiring || alerts[0].Rule != "t" || alerts[0].Key != "alice" {
		t.Fatalf("unexpected alerts: %+v", alerts)
	}
	if alerts[0].Estimate != 150 || alerts[0].Threshold != 100 {
		t.Fatalf("alert payload: %+v", alerts[0])
	}
	// The key vanishing reads as estimate 0 and resolves.
	st.Remove("alice")
	if r := e.Tick(now.Add(3 * time.Second)); r.Resolved != 1 {
		t.Fatalf("removal resolved %d, want 1", r.Resolved)
	}
	if got := e.Alerts(0); got[0].State != StateResolved {
		t.Fatalf("newest alert %+v, want resolved", got[0])
	}
}

// TestHysteresisPreventsFlapping drives a windowed (tumbling) estimate
// that oscillates ±1 around T=100: 101, 99, 101, 99... With the default
// 10% hysteresis band the rule fires once and never resolves (99 is
// inside the band); with hysteresis 0 the same trace flaps a
// fire/resolve pair per oscillation.
func TestHysteresisPreventsFlapping(t *testing.T) {
	run := func(t *testing.T, hysteresis *float64) (fired, resolved int) {
		st := newStore(t, "exact/windowed(width=1m,ring=5)")
		e := New(st, Config{})
		spec := Spec{ID: "h", Type: TypeThreshold, Key: "k", Threshold: 100,
			Window: "1m", Hysteresis: hysteresis}
		if _, err := e.Put(spec); err != nil {
			t.Fatal(err)
		}
		// Tumbling semantics: the queryable value is the last COMPLETE
		// sub-window, so ingesting window w makes window w-1 readable.
		counts := []int{101, 99, 101, 99, 101, 99, 101}
		for w, n := range counts {
			ts := time.Unix(0, int64(100+w)*int64(time.Minute)+int64(30*time.Second))
			for i := 0; i < n; i++ {
				st.AddStringAt(ts, "k", fmt.Sprintf("w%d-item-%d", w, i))
			}
			r := e.Tick(time.Unix(int64(2000+w), 0))
			fired += r.Fired
			resolved += r.Resolved
		}
		return fired, resolved
	}
	t.Run("default band", func(t *testing.T) {
		fired, resolved := run(t, nil)
		if fired != 1 || resolved != 0 {
			t.Fatalf("default hysteresis: %d fired / %d resolved, want 1/0", fired, resolved)
		}
	})
	t.Run("no band flaps", func(t *testing.T) {
		fired, resolved := run(t, f64(0))
		if fired < 2 || resolved < 1 {
			t.Fatalf("zero hysteresis: %d fired / %d resolved, want a flapping pair", fired, resolved)
		}
	})
}

func TestPrefixSuperspreaderDetection(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	// Populate BEFORE the rule exists: installation must force a full
	// scan, not just the stripes dirtied after it (rule added
	// mid-ingest sees pre-existing keys).
	addDistinct(st, "10.0.0.1", 250, "a")    // matches, above T
	addDistinct(st, "10.0.0.2", 30, "b")     // matches, below T
	addDistinct(st, "192.168.0.9", 999, "c") // above T but wrong prefix
	if _, err := e.Put(Spec{ID: "scan", Type: TypePrefix, Prefix: "10.", Threshold: 100}); err != nil {
		t.Fatal(err)
	}
	r := e.Tick(time.Unix(3000, 0))
	if r.Fired != 1 {
		t.Fatalf("fired %d, want 1 (only 10.0.0.1)", r.Fired)
	}
	if a := e.Alerts(1); a[0].Key != "10.0.0.1" {
		t.Fatalf("fired on %q", a[0].Key)
	}
	if r.Scanned != st.Len() {
		t.Fatalf("install did not force a full scan: scanned %d of %d", r.Scanned, st.Len())
	}

	// Quiescent tick scans nothing and changes nothing.
	r = e.Tick(time.Unix(3001, 0))
	if r.Scanned != 0 || r.Fired != 0 {
		t.Fatalf("quiescent tick: %+v", r)
	}

	// A second key crossing is caught incrementally.
	addDistinct(st, "10.0.0.2", 200, "d")
	r = e.Tick(time.Unix(3002, 0))
	if r.Fired != 1 || r.Scanned >= st.Len() {
		t.Fatalf("incremental detection: %+v (store %d keys)", r, st.Len())
	}
	if a := e.Alerts(1); a[0].Key != "10.0.0.2" {
		t.Fatalf("fired on %q", a[0].Key)
	}
}

func TestMoversBaselineAndDetection(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	addDistinct(st, "quiet", 500, "a")
	addDistinct(st, "jumper", 100, "b")
	if _, err := e.Put(Spec{ID: "m", Type: TypeMovers, K: 2, MinDelta: 50}); err != nil {
		t.Fatal(err)
	}
	// First tick only baselines: pre-existing bulk must not read as
	// movement.
	if r := e.Tick(time.Unix(4000, 0)); r.Fired != 0 {
		t.Fatalf("baseline tick fired %d", r.Fired)
	}
	// jumper +200, quiet +10 (< min_delta), brandnew appears with 300.
	addDistinct(st, "jumper", 200, "c")
	addDistinct(st, "quiet", 10, "d")
	addDistinct(st, "brandnew", 300, "e")
	r := e.Tick(time.Unix(4010, 0))
	if r.Fired != 2 {
		t.Fatalf("fired %d, want 2 (jumper, brandnew)", r.Fired)
	}
	got := map[string]float64{}
	for _, a := range e.Alerts(0) {
		got[a.Key] = a.Delta
	}
	if got["jumper"] != 200 || got["brandnew"] != 300 {
		t.Fatalf("mover deltas: %v", got)
	}
	// No further movement: silence.
	if r := e.Tick(time.Unix(4020, 0)); r.Fired != 0 {
		t.Fatalf("still-water tick fired %d", r.Fired)
	}
}

func TestCooldownSuppressesRefire(t *testing.T) {
	st := newStore(t, "exact/windowed(width=1m,ring=5)")
	e := New(st, Config{})
	spec := Spec{ID: "c", Type: TypeThreshold, Key: "k", Threshold: 100,
		Window: "1m", Hysteresis: f64(0), Cooldown: "1h"}
	if _, err := e.Put(spec); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(10000, 0)
	// Window counts 150, 10, 150, 10: fire, resolve, then the re-cross
	// lands inside the 1h cooldown and is suppressed.
	counts := []int{150, 10, 150, 10}
	fired := 0
	for w, n := range counts {
		ts := time.Unix(0, int64(200+w)*int64(time.Minute)+int64(30*time.Second))
		for i := 0; i < n; i++ {
			st.AddStringAt(ts, "k", fmt.Sprintf("w%d-item-%d", w, i))
		}
		fired += e.Tick(base.Add(time.Duration(w) * time.Second)).Fired
	}
	if fired != 1 {
		t.Fatalf("fired %d inside cooldown, want 1", fired)
	}
	// The same re-cross an hour later fires.
	ts := time.Unix(0, 204*int64(time.Minute)+int64(30*time.Second))
	for i := 0; i < 150; i++ {
		st.AddStringAt(ts, "k", fmt.Sprintf("w4-item-%d", i))
	}
	ts = time.Unix(0, 205*int64(time.Minute))
	st.AddStringAt(ts, "k", "w5-item-0")
	if r := e.Tick(base.Add(2 * time.Hour)); r.Fired != 1 {
		t.Fatalf("post-cooldown re-cross fired %d, want 1", r.Fired)
	}
}

// TestAlertRingOverflow: the ring keeps the newest alerts, Alerts()
// returns newest-first, and IDs stay monotone across the wrap.
func TestAlertRingOverflow(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{RingSize: 4})
	if _, err := e.Put(Spec{ID: "o", Type: TypePrefix, Threshold: 10, Hysteresis: f64(0)}); err != nil {
		t.Fatal(err)
	}
	// 10 keys cross: 10 firing alerts through a 4-slot ring.
	for i := 0; i < 10; i++ {
		addDistinct(st, fmt.Sprintf("key-%d", i), 20, "x")
		e.Tick(time.Unix(int64(5000+i), 0))
	}
	alerts := e.Alerts(0)
	if len(alerts) != 4 {
		t.Fatalf("ring holds %d alerts, want 4", len(alerts))
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i-1].ID <= alerts[i].ID {
			t.Fatalf("not newest-first: %+v", alerts)
		}
	}
	if alerts[0].Key != "key-9" {
		t.Fatalf("newest alert is %q, want key-9", alerts[0].Key)
	}
	if got := e.Alerts(2); len(got) != 2 || got[0].ID != alerts[0].ID {
		t.Fatalf("limited read: %+v", got)
	}
}

func TestSubscribe(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	ch, cancel := e.Subscribe(8)
	defer cancel()
	if _, err := e.Put(Spec{ID: "s", Type: TypeThreshold, Key: "k", Threshold: 10}); err != nil {
		t.Fatal(err)
	}
	addDistinct(st, "k", 50, "a")
	e.Tick(time.Unix(6000, 0))
	select {
	case a := <-ch:
		if a.Key != "k" || a.State != StateFiring {
			t.Fatalf("streamed alert %+v", a)
		}
	default:
		t.Fatal("no alert on the subscription channel")
	}
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}
	cancel() // second cancel is a no-op, not a double close
}

// TestObserveIngestHotPath: a single-key threshold rule fires inside the
// ingest observation, no tick needed; unmatched keys cost nothing.
func TestObserveIngestHotPath(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	if _, err := e.Put(Spec{ID: "hot", Type: TypeThreshold, Key: "spike", Threshold: 100}); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(7000, 0)
	addDistinct(st, "spike", 50, "a")
	e.ObserveIngest([]string{"spike", "other"}, now, 0xbeef)
	if got := e.Alerts(0); len(got) != 0 {
		t.Fatalf("fired below threshold: %+v", got)
	}
	addDistinct(st, "spike", 100, "b")
	e.ObserveIngest([]string{"spike"}, now, 0xbeef)
	got := e.Alerts(0)
	if len(got) != 1 || got[0].State != StateFiring || got[0].Key != "spike" {
		t.Fatalf("hot path alerts: %+v", got)
	}
	if e.Stats().HotPathEvals == 0 {
		t.Fatal("hot path evals not counted")
	}
	// Already firing: the next observation is a no-op.
	e.ObserveIngest([]string{"spike"}, now.Add(time.Second), 0xbeef)
	if got := e.Alerts(0); len(got) != 1 {
		t.Fatalf("re-fired while firing: %+v", got)
	}
}

// TestSnapshotRestore: rules, firing state, alert history, and the ID
// cursor all survive; a restored still-above-threshold key does NOT
// re-fire on the first post-restore tick.
func TestSnapshotRestore(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	if _, err := e.Put(Spec{ID: "a", Type: TypeThreshold, Key: "k", Threshold: 100, Cooldown: "30s"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put(Spec{ID: "b", Type: TypePrefix, Prefix: "10.", Threshold: 50}); err != nil {
		t.Fatal(err)
	}
	addDistinct(st, "k", 200, "x")
	addDistinct(st, "10.9.9.9", 80, "y")
	e.Tick(time.Unix(8000, 0))
	before := e.Alerts(0)
	if len(before) != 2 {
		t.Fatalf("setup fired %d alerts, want 2", len(before))
	}

	snap := e.Snapshot()
	e2 := New(st, Config{})
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := e2.List(); len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("restored rules: %+v", got)
	}
	after := e2.Alerts(0)
	if len(after) != len(before) {
		t.Fatalf("restored %d alerts, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("alert %d changed across restore: %+v vs %+v", i, after[i], before[i])
		}
	}
	// Keys are still above threshold; the restored firing state must
	// suppress duplicate firings.
	if r := e2.Tick(time.Unix(8060, 0)); r.Fired != 0 {
		t.Fatalf("restored engine re-fired %d alerts", r.Fired)
	}
	// New alerts continue the ID sequence.
	addDistinct(st, "10.1.1.1", 80, "z")
	e2.Tick(time.Unix(8120, 0))
	newest := e2.Alerts(1)[0]
	if newest.ID <= before[0].ID {
		t.Fatalf("restored ID cursor went backwards: %d after %d", newest.ID, before[0].ID)
	}

	// A snapshot whose rule no longer compiles fails the restore.
	snap.Rules[0].Spec.Window = "1m" // store is not windowed
	if err := New(st, Config{}).Restore(snap); err == nil {
		t.Fatal("invalid restored rule accepted")
	}
}

// TestRuleAddedMidIngest: installing, evaluating, and deleting rules
// while ingest hammers the store must be race-free and still detect the
// crossing key (run under -race in CI).
func TestRuleAddedMidIngest(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("bg-%d", i%64)
			st.AddString(key, fmt.Sprintf("item-%d", i))
			e.ObserveIngest([]string{key}, time.Unix(9000, int64(i)), 0xbeef)
		}
	}()

	addDistinct(st, "target", 500, "t")
	if _, err := e.Put(Spec{ID: "mid", Type: TypePrefix, Prefix: "targ", Threshold: 100}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	detected := false
	for i := 0; time.Now().Before(deadline); i++ {
		if e.Tick(time.Unix(int64(9100+i), 0)).Fired > 0 {
			detected = true
			break
		}
	}
	close(stop)
	wg.Wait()
	if !detected {
		t.Fatal("rule added mid-ingest never detected the pre-existing key")
	}
	if err := e.Delete("mid"); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("mid"); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStats(t *testing.T) {
	st := newStore(t, "exact")
	e := New(st, Config{})
	if _, err := e.Put(Spec{ID: "s1", Type: TypeThreshold, Key: "k", Threshold: 10}); err != nil {
		t.Fatal(err)
	}
	addDistinct(st, "k", 50, "a")
	e.Tick(time.Unix(11000, 0))
	s := e.Stats()
	if s.Rules != 1 || s.Firing != 1 || s.Ticks != 1 || s.AlertsFired != 1 {
		t.Fatalf("stats: %+v", s)
	}
	st.Remove("k")
	e.Tick(time.Unix(11001, 0))
	s = e.Stats()
	if s.Firing != 0 || s.AlertsResolved != 1 {
		t.Fatalf("post-resolve stats: %+v", s)
	}
}

// TestPutRefusesUnreachableThreshold: no S-bitmap estimate, plain or
// windowed, exceeds t_{k*}, the estimate at the truncation point, so Put
// refuses a threshold or prefix rule with T ≥ t_{k*} on "threshold" —
// it could never fire. Kinds without such a ceiling accept any T.
func TestPutRefusesUnreachableThreshold(t *testing.T) {
	for _, tc := range []struct {
		store     string
		threshold float64
		ok        bool
	}{
		{"sbitmap:n=1e4,eps=0.1", 9939, false}, // t_{k*} = 9,938.85
		{"sbitmap:n=1e4,eps=0.1", 9938, true},
		{"sbitmap:n=1e4,eps=0.1/windowed(width=1m,ring=5)", 9939, false},
		{"sbitmap:n=1e4,eps=0.1/windowed(width=1m,ring=5)", 9938, true},
		{"sbitmap:n=1e6,eps=0.01", 1e6, true}, // t_{k*} = 1,000,064.6, above N
		{"sbitmap:n=1e6,eps=0.01", 1.0001e6, false},
		{"hll:mbits=512", 1e300, true},
		{"exact", 1e300, true},
	} {
		for _, spec := range []Spec{
			{ID: "r", Type: TypeThreshold, Key: "k", Threshold: tc.threshold},
			{ID: "r", Type: TypePrefix, Threshold: tc.threshold},
		} {
			e := New(newStore(t, tc.store), Config{})
			_, err := e.Put(spec)
			if tc.ok {
				if err != nil {
					t.Errorf("%s, %s rule, T=%v: %v", tc.store, spec.Type, tc.threshold, err)
				}
				continue
			}
			var bad *BadRuleError
			if !errors.As(err, &bad) || bad.Field != "threshold" {
				t.Errorf("%s, %s rule, T=%v: got %v, want a bad threshold", tc.store, spec.Type, tc.threshold, err)
				continue
			}
			maxEst, n, _ := sbitmap.MustSpec(tc.store).MaxEstimate()
			for _, want := range []string{fmt.Sprintf("%.6g", maxEst), fmt.Sprintf("n=%g", n)} {
				if !strings.Contains(bad.Reason, want) {
					t.Errorf("%s: reason %q does not name %s", tc.store, bad.Reason, want)
				}
			}
			if e.Len() != 0 {
				t.Errorf("%s: a refused rule was installed", tc.store)
			}
		}
	}
	e := New(newStore(t, "sbitmap:n=1e4,eps=0.1"), Config{})
	if _, err := e.Put(Spec{ID: "m", Type: TypeMovers, K: 3}); err != nil {
		t.Fatalf("movers rule on an S-bitmap store: %v", err)
	}
}

// TestRestoreKeepsUnreachableThreshold: a checkpoint written before Put
// refused never-firing rules still restores, rules and firing state.
func TestRestoreKeepsUnreachableThreshold(t *testing.T) {
	e := New(newStore(t, "sbitmap:n=1e4,eps=0.1"), Config{})
	err := e.Restore(State{Rules: []RuleState{
		{Spec: Spec{ID: "never", Type: TypePrefix, Threshold: 20000}},
		{Spec: Spec{ID: "t", Type: TypeThreshold, Key: "k", Threshold: 1e5},
			Firing: []KeyFiring{{Key: "k", Firing: true, LastFiredUnixNano: 1}}},
	}, NextAlertID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.List(); len(got) != 2 || got[0].ID != "never" || got[1].ID != "t" {
		t.Fatalf("restored rules: %+v", got)
	}
	if s := e.Stats(); s.Firing != 1 {
		t.Fatalf("restored firing state: %+v", s)
	}
}
