package rules

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	sbitmap "repro"
	"repro/internal/pstats"
)

// Config configures an Engine.
type Config struct {
	// RingSize caps the in-memory alert history ring (GET /v1/alerts);
	// overflow drops the oldest alerts. 0 means DefaultRingSize.
	RingSize int
}

// Engine evaluates standing queries against one live Store[string].
// Construct with New, install rules with Put, and drive evaluation with
// Tick (a server runs it on a timer; tests and benches call it
// directly). All methods are safe for concurrent use.
type Engine struct {
	store *sbitmap.Store[string]

	// mu guards the rule set, all per-rule state, the alert ring, and
	// the tick cursor. Ticks hold it for the whole evaluation, so rule
	// CRUD briefly queues behind a tick — by design: a rule is added or
	// removed at a tick boundary, never mid-scan.
	mu    sync.RWMutex
	rules map[string]*rule
	// scanners are the prefix and movers rules in rule-ID order: the
	// rules a tick evaluates key by key inside its dirty scan. Rebuilt
	// with hot whenever the rule set changes.
	scanners []*rule
	// hot indexes single-key threshold rules by watched key for the
	// on-ingest hot path. It is rebuilt under mu and read without it:
	// nil when no threshold rule exists, so ObserveIngest bails on one
	// atomic load, and a batch that carries no watched key never waits
	// for mu (and so never for a tick).
	hot atomic.Pointer[map[string][]*rule]

	// ring is the alert history: a fixed circular buffer, ring[total %
	// len] the next write slot. IDs are monotone and survive restarts.
	ring   []Alert
	total  int64
	nextID int64

	// lastCut is the store generation cut of the previous tick's dirty
	// scan; 0 forces the next tick to scan every stripe (set when a
	// scanning rule is installed, so a rule added mid-ingest sees keys
	// that stopped moving before it existed).
	lastCut uint64

	// subs are live SSE subscribers. A separate lock so publishing
	// (under mu) and subscribing never deadlock; Subscribe only ever
	// takes subMu.
	subMu  sync.Mutex
	subs   map[int]chan Alert
	subSeq int

	// Counters for /v1/stats. fired/resolved/hotEvals are pstats
	// (padded, sharded) because the hot path bumps them from concurrent
	// ingest goroutines.
	fired      pstats.Counter
	resolved   pstats.Counter
	hotEvals   pstats.Counter
	dropped    pstats.Counter
	ticks      atomic.Int64
	lastTickNs atomic.Int64
	lastKeys   atomic.Int64
}

// New returns an engine watching store. cfg.RingSize caps alert history.
func New(store *sbitmap.Store[string], cfg Config) *Engine {
	ring := cfg.RingSize
	if ring <= 0 {
		ring = DefaultRingSize
	}
	return &Engine{
		store:  store,
		rules:  make(map[string]*rule),
		ring:   make([]Alert, ring),
		nextID: 1,
		subs:   make(map[int]chan Alert),
	}
}

// Put validates spec and installs it, replacing any rule with the same
// ID. Replacing a rule resets its per-key state (firing keys, movers
// baseline): it is a new query that happens to reuse the name. A
// threshold or prefix rule whose T no estimate of the store can exceed
// (sbitmap.Spec.MaxEstimate) is refused: it could never fire. Returns
// the installed spec.
func (e *Engine) Put(spec Spec) (Spec, error) {
	r, err := compile(spec, e.store.Spec())
	if err != nil {
		return Spec{}, err
	}
	// Movers rules have no threshold (compile holds it at 0). Restore
	// skips this check, so a checkpoint holding such a rule still starts.
	if maxEst, n, ok := e.store.Spec().MaxEstimate(); ok && r.threshold >= maxEst {
		return Spec{}, badRule("threshold", "%v can never be exceeded: no estimate of this store exceeds %.6g, the estimate at its truncation point (n=%g)",
			r.threshold, maxEst, n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.installLocked(r)
	return spec, nil
}

func (e *Engine) installLocked(r *rule) {
	e.rules[r.spec.ID] = r
	if r.spec.Type != TypeThreshold {
		// Scanning rules must see keys that were ingested (and went
		// quiet) before the rule existed: force the next tick to a full
		// scan.
		e.lastCut = 0
	}
	e.rebuildLocked()
}

// Delete removes the rule; ErrUnknownRule if it is not installed.
// Firing keys disappear without resolved alerts — the query is gone,
// not answered.
func (e *Engine) Delete(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[id]; !ok {
		return ErrUnknownRule
	}
	delete(e.rules, id)
	e.rebuildLocked()
	return nil
}

// Get returns the installed spec for id, or ErrUnknownRule.
func (e *Engine) Get(id string) (Spec, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.rules[id]
	if !ok {
		return Spec{}, ErrUnknownRule
	}
	return r.spec, nil
}

// List returns every installed spec, sorted by ID.
func (e *Engine) List() []Spec {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Spec, 0, len(e.rules))
	for _, r := range e.rules {
		out = append(out, r.spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of installed rules.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.rules)
}

// rebuildLocked rebuilds the rule-set indexes: the tick's scanners and
// the hot path's watched keys.
func (e *Engine) rebuildLocked() {
	var scanners []*rule
	hot := make(map[string][]*rule)
	for _, r := range e.rules {
		if r.spec.Type == TypeThreshold {
			hot[r.spec.Key] = append(hot[r.spec.Key], r)
		} else {
			scanners = append(scanners, r)
		}
	}
	slices.SortFunc(scanners, func(a, b *rule) int { return strings.Compare(a.spec.ID, b.spec.ID) })
	e.scanners = scanners
	if len(hot) == 0 {
		e.hot.Store(nil)
	} else {
		e.hot.Store(&hot)
	}
}

// TickResult summarizes one evaluation pass.
type TickResult struct {
	// Scanned is how many keys the dirty-stripe scan visited (0 when no
	// prefix or movers rules are installed, or nothing was written
	// since the last tick).
	Scanned  int
	Fired    int
	Resolved int
	Elapsed  time.Duration
}

// Tick runs one evaluation pass at logical time now: re-evaluates every
// tracked key (resolving keys that fell back below the band), rescans
// the stripes dirtied since the previous tick for prefix and movers
// rules, and appends the resulting alerts to the ring and to every
// subscriber. now stamps alerts and drives cooldowns — the server
// passes time.Now(); tests pass synthetic clocks.
func (e *Engine) Tick(now time.Time) TickResult {
	start := time.Now()
	nowN := now.UnixNano()
	var res TickResult

	e.mu.Lock()
	defer e.mu.Unlock()

	// Phase 1: tracked keys. Every key with live firing/cooldown state
	// is re-read directly — this is what resolves alerts, and it works
	// even when the key's stripe was not dirtied (an idle key's
	// windowed estimate still decays as the ring rotates) or when the
	// key was evicted (a vanished key reads as 0 and resolves).
	for _, r := range e.rules {
		if r.spec.Type == TypeMovers {
			continue // movers state is cooldown-only, handled in the scan
		}
		for key, ks := range r.keys {
			val, _ := e.value(r, key)
			f, rv := e.transitionLocked(r, key, ks, val, nowN)
			res.Fired += f
			res.Resolved += rv
			// Prefix rules drop resolved, out-of-cooldown keys; they
			// will be rediscovered by the scan if they cross again.
			if r.spec.Type == TypePrefix && !ks.firing && nowN-ks.lastFired >= int64(r.cooldown) {
				delete(r.keys, key)
			}
		}
	}

	// Phase 2: one pass over the stripes written since the last tick
	// evaluates every scanning rule key by key, inside the scan's
	// callback, so the tick keeps no per-key memory: a prefix rule runs
	// its state machine on the spot, a movers rule updates its baseline
	// and offers the key to its k-sized heap. The value comes from the
	// counter in hand — its estimate, read once per key and only if a
	// rule needs it, or, for a windowed rule, its window estimate
	// (sbitmap.WindowCounter) — so the callback calls no Store method,
	// as ForEachDirty requires. Movers alerts go out after the scan, once
	// the heaps hold each rule's top k.
	if len(e.scanners) > 0 {
		e.lastCut = e.store.ForEachDirty(e.lastCut, func(key string, c sbitmap.Counter) bool {
			res.Scanned++
			est, haveEst := 0.0, false
			for _, r := range e.scanners {
				if r.prefix != "" && !strings.HasPrefix(key, r.prefix) {
					continue
				}
				var val float64
				switch {
				case r.window > 0:
					val = windowValue(c, r.window)
				case haveEst:
					val = est
				default:
					est, haveEst = c.Estimate(), true
					val = est
				}
				if r.spec.Type == TypeMovers {
					r.observeMover(key, val)
					continue
				}
				f, rv := e.observePrefixLocked(r, key, val, nowN)
				res.Fired += f
				res.Resolved += rv
			}
			return true
		})
		for _, r := range e.scanners {
			if r.spec.Type == TypeMovers {
				res.Fired += e.emitMoversLocked(r, nowN)
			}
		}
	}

	e.ticks.Add(1)
	e.lastKeys.Store(int64(res.Scanned))
	res.Elapsed = time.Since(start)
	e.lastTickNs.Store(int64(res.Elapsed))
	return res
}

// windowValue reads a scanned key's sliding-window estimate from its
// counter, which a windowed store hands out as an sbitmap.WindowCounter.
// The span fits the store's retention (compile checked it), so an error —
// or a counter without windows — reads as 0, as value reads a missing
// key.
func windowValue(c sbitmap.Counter, span time.Duration) float64 {
	wc, ok := c.(sbitmap.WindowCounter)
	if !ok {
		return 0
	}
	we, err := wc.EstimateWindow(span)
	if err != nil {
		return 0
	}
	return we.Estimate
}

// value reads the rule's evaluation value for key: the sliding-window
// estimate when the rule has a window, the all-time estimate otherwise.
// A missing key (or a window error, impossible after compile-time
// validation) reads as (0, false).
func (e *Engine) value(r *rule, key string) (float64, bool) {
	if r.window > 0 {
		we, ok, err := e.store.EstimateWindow(key, r.window)
		if err != nil || !ok {
			return 0, false
		}
		return we.Estimate, true
	}
	return e.store.Estimate(key)
}

// transitionLocked applies one (rule, key, value) observation to the
// key's state machine and emits the resulting alert, if any.
func (e *Engine) transitionLocked(r *rule, key string, ks *keyState, val float64, nowN int64) (fired, resolved int) {
	if ks.firing {
		if val < r.threshold*(1-r.hysteresis) {
			ks.firing = false
			e.emitLocked(Alert{
				Rule: r.spec.ID, Key: key, State: StateResolved,
				Estimate: val, Threshold: r.threshold, UnixNano: nowN,
			})
			e.resolved.Add(uintptr(unsafe.Pointer(r)), 1)
			return 0, 1
		}
		return 0, 0
	}
	if val > r.threshold && nowN-ks.lastFired >= int64(r.cooldown) {
		ks.firing = true
		ks.lastFired = nowN
		e.emitLocked(Alert{
			Rule: r.spec.ID, Key: key, State: StateFiring,
			Estimate: val, Threshold: r.threshold, UnixNano: nowN,
		})
		e.fired.Add(uintptr(unsafe.Pointer(r)), 1)
		return 1, 0
	}
	return 0, 0
}

// observePrefixLocked evaluates a prefix rule against one scanned key.
// Only keys above threshold start being tracked — the rule's memory
// stays proportional to its firing set, not the key population.
func (e *Engine) observePrefixLocked(r *rule, key string, val float64, nowN int64) (fired, resolved int) {
	ks, tracked := r.keys[key]
	if !tracked {
		if val <= r.threshold {
			return 0, 0
		}
		ks = &keyState{}
		r.keys[key] = ks
	}
	return e.transitionLocked(r, key, ks, val, nowN)
}

// observeMover records one scanned key's value as a movers rule's new
// baseline and offers its increase to the rule's candidate heap. The
// first scan after install (or restore) only seeds the baseline; a key
// with no baseline thereafter is new, and its whole estimate counts as
// its delta — a source that appeared with thousands of distinct targets
// since the last tick is precisely what the rule looks for.
func (r *rule) observeMover(key string, val float64) {
	delta := val - r.prev[key]
	r.prev[key] = val
	if !r.baselined || delta <= 0 || delta < r.minDelta {
		return
	}
	m := mover{key: key, val: val, delta: delta}
	h := r.top
	switch {
	case len(h) < r.k:
		// Sift the new candidate up from the end.
		h = append(h, m)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !h[i].worse(h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		r.top = h
	case h[0].worse(m):
		// Replace the cutoff and sift it down.
		h[0] = m
		for i := 0; ; {
			l, rc, least := 2*i+1, 2*i+2, i
			if l < len(h) && h[l].worse(h[least]) {
				least = l
			}
			if rc < len(h) && h[rc].worse(h[least]) {
				least = rc
			}
			if least == i {
				break
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
}

// emitMoversLocked ends a movers rule's scan: it fires the candidates in
// the heap — the scan's k largest increases, delta descending, then key
// ascending — skipping keys still in cooldown. The scan that seeded the
// baseline emits nothing.
func (e *Engine) emitMoversLocked(r *rule, nowN int64) (fired int) {
	if !r.baselined {
		r.baselined = true
		return 0
	}
	top := r.top
	slices.SortFunc(top, func(a, b mover) int { // best first
		switch {
		case b.worse(a):
			return -1
		case a.worse(b):
			return 1
		}
		return 0
	})
	for _, m := range top {
		ks, ok := r.keys[m.key]
		if !ok {
			ks = &keyState{}
			r.keys[m.key] = ks
		}
		if ks.lastFired != 0 && nowN-ks.lastFired < int64(r.cooldown) {
			continue
		}
		ks.lastFired = nowN
		e.emitLocked(Alert{
			Rule: r.spec.ID, Key: m.key, State: StateFiring,
			Estimate: m.val, Delta: m.delta, UnixNano: nowN,
		})
		e.fired.Add(uintptr(unsafe.Pointer(r)), 1)
		fired++
	}
	// The heap keeps its capacity for the next scan, not its keys.
	clear(top)
	r.top = top[:0]
	// Movers keys are cooldown bookkeeping only; drop expired entries
	// so the map tracks recent movers, not history.
	for key, ks := range r.keys {
		if nowN-ks.lastFired >= int64(r.cooldown) {
			delete(r.keys, key)
		}
	}
	return fired
}

// ObserveIngest gives single-key threshold rules their on-ingest hot
// path: the server calls it with every ingested batch's keys (after the
// records are applied), and any watched key gets its rule evaluated
// immediately instead of at the next tick. Only firing transitions
// happen here — resolution needs the estimate to fall, which ingest
// never causes; ticks handle it. Returns without locking when no
// threshold rule is installed (one atomic load) or when no key of the
// batch is watched (one map lookup per key), so ingest waits for a
// running tick only with a batch that carries a watched key. keys may
// alias a transport buffer the caller reuses; the engine clones
// anything it retains. affinity shards the stats counters (pass a
// per-request pointer, as pstats documents).
func (e *Engine) ObserveIngest(keys []string, now time.Time, affinity uintptr) {
	hot := e.hot.Load()
	if hot == nil {
		return
	}
	first := firstWatched(*hot, keys)
	if first < 0 {
		return
	}
	nowN := now.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	// The rule set may have changed since the check: then look again,
	// from the start.
	if cur := e.hot.Load(); cur != hot {
		if hot, first = cur, 0; hot == nil {
			return
		}
	}
	for _, k := range keys[first:] {
		rs, ok := (*hot)[k]
		if !ok {
			continue
		}
		for _, r := range rs {
			ks := r.keys[r.spec.Key] // pre-created at compile
			if ks.firing || nowN-ks.lastFired < int64(r.cooldown) {
				continue
			}
			e.hotEvals.Add(affinity, 1)
			val, ok := e.value(r, r.spec.Key)
			if !ok {
				continue
			}
			e.transitionLocked(r, r.spec.Key, ks, val, nowN)
		}
	}
}

// firstWatched returns the index of the first of keys that hot watches,
// or -1 if none is.
func firstWatched(hot map[string][]*rule, keys []string) int {
	for i, k := range keys {
		if _, ok := hot[k]; ok {
			return i
		}
	}
	return -1
}

// emitLocked stamps, records, and publishes one alert.
func (e *Engine) emitLocked(a Alert) {
	a.ID = e.nextID
	e.nextID++
	e.ring[e.total%int64(len(e.ring))] = a
	e.total++
	e.subMu.Lock()
	for _, ch := range e.subs {
		select {
		case ch <- a:
		default:
			// A slow subscriber loses alerts rather than stalling the
			// tick; the drop is counted and the subscriber can re-sync
			// from GET /v1/alerts by ID.
			e.dropped.Add(uintptr(unsafe.Pointer(e)), 1)
		}
	}
	e.subMu.Unlock()
}

// Alerts returns up to limit recent alerts, newest first (limit <= 0
// means everything the ring holds).
func (e *Engine) Alerts(limit int) []Alert {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.total
	if n > int64(len(e.ring)) {
		n = int64(len(e.ring))
	}
	if limit > 0 && int64(limit) < n {
		n = int64(limit)
	}
	out := make([]Alert, n)
	for i := int64(0); i < n; i++ {
		out[i] = e.ring[(e.total-1-i)%int64(len(e.ring))]
	}
	return out
}

// Subscribe registers a live alert feed with the given channel buffer
// (the SSE handler's backlog tolerance) and returns the channel plus a
// cancel func that unregisters and closes it. Alerts emitted while the
// buffer is full are dropped from this feed (counted in Stats), never
// from the ring.
func (e *Engine) Subscribe(buf int) (<-chan Alert, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Alert, buf)
	e.subMu.Lock()
	e.subSeq++
	id := e.subSeq
	e.subs[id] = ch
	e.subMu.Unlock()
	return ch, func() {
		e.subMu.Lock()
		if _, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(ch)
		}
		e.subMu.Unlock()
	}
}

// Snapshot captures the engine's restartable state for the checkpoint
// manifest. Rules are sorted by ID, firing keys by key, alerts oldest
// first — deterministic bytes for a given state.
func (e *Engine) Snapshot() State {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := State{NextAlertID: e.nextID}
	for _, r := range e.rules {
		rs := RuleState{Spec: r.spec}
		for key, ks := range r.keys {
			if !ks.firing && ks.lastFired == 0 {
				continue
			}
			rs.Firing = append(rs.Firing, KeyFiring{
				Key: key, Firing: ks.firing, LastFiredUnixNano: ks.lastFired,
			})
		}
		sort.Slice(rs.Firing, func(i, j int) bool { return rs.Firing[i].Key < rs.Firing[j].Key })
		st.Rules = append(st.Rules, rs)
	}
	sort.Slice(st.Rules, func(i, j int) bool { return st.Rules[i].Spec.ID < st.Rules[j].Spec.ID })
	n := e.total
	if n > int64(len(e.ring)) {
		n = int64(len(e.ring))
	}
	for i := n; i > 0; i-- {
		st.Alerts = append(st.Alerts, e.ring[(e.total-i)%int64(len(e.ring))])
	}
	return st
}

// Restore loads a Snapshot into a fresh engine: rule specs recompile
// (against the current store spec — a spec change that invalidates a
// rule fails the restore rather than silently dropping it), firing
// state reattaches, and the alert ring and ID cursor resume. Call
// before concurrent use.
func (e *Engine) Restore(st State) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range st.Rules {
		r, err := compile(rs.Spec, e.store.Spec())
		if err != nil {
			return fmt.Errorf("rules: restoring rule %q: %w", rs.Spec.ID, err)
		}
		for _, kf := range rs.Firing {
			r.keys[kf.Key] = &keyState{firing: kf.Firing, lastFired: kf.LastFiredUnixNano}
		}
		e.installLocked(r)
	}
	for _, a := range st.Alerts {
		e.ring[e.total%int64(len(e.ring))] = a
		e.total++
	}
	if st.NextAlertID > e.nextID {
		e.nextID = st.NextAlertID
	}
	return nil
}

// Stats is the /v1/stats "rules" block.
type Stats struct {
	Rules          int   `json:"rules"`
	Firing         int   `json:"firing"`
	Ticks          int64 `json:"evaluations"`
	LastTickMicros int64 `json:"last_tick_micros"`
	LastTickKeys   int64 `json:"last_tick_keys"`
	AlertsFired    int64 `json:"alerts_fired"`
	AlertsResolved int64 `json:"alerts_resolved"`
	HotPathEvals   int64 `json:"hot_path_evals"`
	StreamDropped  int64 `json:"stream_dropped,omitempty"`
}

// Stats returns current counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	firing := 0
	nRules := len(e.rules)
	for _, r := range e.rules {
		for _, ks := range r.keys {
			if ks.firing {
				firing++
			}
		}
	}
	e.mu.RUnlock()
	return Stats{
		Rules:          nRules,
		Firing:         firing,
		Ticks:          e.ticks.Load(),
		LastTickMicros: e.lastTickNs.Load() / int64(time.Microsecond),
		LastTickKeys:   e.lastKeys.Load(),
		AlertsFired:    e.fired.Load(),
		AlertsResolved: e.resolved.Load(),
		HotPathEvals:   e.hotEvals.Load(),
		StreamDropped:  e.dropped.Load(),
	}
}
