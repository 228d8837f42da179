// Package rules is the standing-query engine: continuous queries
// evaluated against a live keyed Store, turning the counting service
// into a monitor. The paper's motivating workload (Section 7, online
// per-link monitoring) estimates per-source spread in order to *detect*
// things — port scanners and superspreaders are exactly keys whose
// distinct-count crosses a threshold or jumps between reporting
// intervals — and a rule is that detection criterion kept resident:
//
//   - threshold: watch one key, fire when its estimate crosses T
//     (with hysteresis and cooldown, because a sketch estimate is noisy
//     around T and a naive comparator would flap);
//   - prefix: scan every key, or every key matching a prefix, for
//     estimates above T — the superspreader / port-scan detector;
//   - movers: rank the largest estimate increases between consecutive
//     evaluation ticks (per-interval change detection), optionally over
//     a sliding window via EstimateWindow.
//
// Evaluation is incremental: each tick rescans only the stripes the
// Store dirtied since the previous tick (Store.ForEachDirty, the same
// per-stripe generation protocol incremental checkpoints use), so a
// quiet store costs nothing to watch and a busy one costs in proportion
// to its write footprint. Every scanning rule is evaluated inside that
// scan, key by key, so a tick holds no memory per key; only a movers
// rule's baseline lives between ticks. Single-key threshold rules additionally get an
// on-ingest hot path (Engine.ObserveIngest) so a spike fires within the
// ingest call that caused it rather than a tick later.
package rules

import (
	"errors"
	"fmt"
	"time"

	sbitmap "repro"
)

// Rule types.
const (
	// TypeThreshold watches a single key: fire when estimate(key) > T.
	TypeThreshold = "threshold"
	// TypePrefix scans all keys (or keys matching Prefix): fire per key
	// whose estimate exceeds T — the superspreader detector.
	TypePrefix = "prefix"
	// TypeMovers ranks the top-K largest estimate increases between
	// consecutive evaluation ticks.
	TypeMovers = "movers"
)

// Alert states.
const (
	// StateFiring marks a threshold crossing (and every movers hit —
	// movers alerts are one-shot and never resolve).
	StateFiring = "firing"
	// StateResolved marks a firing key whose estimate fell back below
	// the hysteresis band (threshold and prefix rules only).
	StateResolved = "resolved"
)

// Defaults.
const (
	// DefaultHysteresis is the resolve band when a rule does not set
	// one: a firing key resolves only when its estimate falls below
	// T × (1 − 0.1). Distinct-count estimates are monotone per key in
	// steady state but windowed estimates and evictions move both ways;
	// the band keeps ±ε estimator noise around T from flapping
	// fire/resolve pairs into the alert stream.
	DefaultHysteresis = 0.1
	// DefaultRingSize is the alert history ring capacity when the
	// engine's Config does not set one.
	DefaultRingSize = 1024
	// maxIDLen bounds rule IDs; they appear in URLs and alert records.
	maxIDLen = 128
)

// Spec is the JSON rule specification accepted by PUT /v1/rules.
type Spec struct {
	// ID names the rule; it keys updates and deletes and stamps every
	// alert the rule emits. Required, at most 128 bytes.
	ID string `json:"id"`
	// Type is one of "threshold", "prefix", "movers".
	Type string `json:"type"`
	// Key is the single key a threshold rule watches. Required for
	// threshold rules, invalid elsewhere.
	Key string `json:"key,omitempty"`
	// Prefix restricts prefix and movers rules to keys with this
	// prefix; empty scans every key. Invalid for threshold rules.
	Prefix string `json:"prefix,omitempty"`
	// Threshold is T: fire when estimate > T. Required (> 0) for
	// threshold and prefix rules, invalid for movers.
	Threshold float64 `json:"threshold,omitempty"`
	// Hysteresis is the resolve band as a fraction of T: a firing key
	// resolves when its estimate falls below T × (1 − Hysteresis).
	// In [0, 1); omitted means DefaultHysteresis, an explicit 0
	// disables the band.
	Hysteresis *float64 `json:"hysteresis,omitempty"`
	// Cooldown is the minimum time between consecutive firings of the
	// same (rule, key), as a Go duration string ("30s"). It caps alert
	// volume per key; empty means no cooldown.
	Cooldown string `json:"cooldown,omitempty"`
	// Window evaluates the rule over the trailing sliding window of
	// this span (a Go duration string) via EstimateWindow instead of
	// the all-time estimate. Requires a windowed store spec; the span
	// must not exceed its retention.
	Window string `json:"window,omitempty"`
	// K is how many movers a movers rule reports per tick. Required
	// (>= 1) for movers, invalid elsewhere.
	K int `json:"k,omitempty"`
	// MinDelta filters movers: only estimate increases of at least this
	// much rank. Movers only; 0 means any positive increase.
	MinDelta float64 `json:"min_delta,omitempty"`
}

// BadRuleError reports a rule spec that failed validation; the server
// maps it to HTTP 400 with code "bad_rule".
type BadRuleError struct {
	Field  string // the offending Spec field, lower-case JSON name
	Reason string
}

func (e *BadRuleError) Error() string {
	return fmt.Sprintf("rules: bad rule: %s: %s", e.Field, e.Reason)
}

func badRule(field, format string, args ...any) error {
	return &BadRuleError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Alert is one entry in the alert history: a (rule, key) state
// transition with the estimate that caused it.
type Alert struct {
	// ID is monotone over the engine's lifetime (it survives restarts
	// via State); SSE consumers use it to dedup replays.
	ID   int64  `json:"id"`
	Rule string `json:"rule"`
	Key  string `json:"key"`
	// State is StateFiring or StateResolved.
	State string `json:"state"`
	// Estimate is the value that drove the transition (windowed when
	// the rule has a Window).
	Estimate  float64 `json:"estimate"`
	Threshold float64 `json:"threshold,omitempty"`
	// Delta is the between-tick estimate increase (movers alerts only).
	Delta    float64 `json:"delta,omitempty"`
	UnixNano int64   `json:"unix_nano"`
}

// State is the engine's restartable state, embedded in the checkpoint
// manifest: the installed rule specs with their per-key firing state
// (so a key still above threshold does not re-fire spuriously after
// recovery), the alert history ring oldest-first, and the alert ID
// cursor. Movers baselines are deliberately not persisted — they are
// per-tick deltas; after restart the first tick re-baselines silently.
type State struct {
	Rules       []RuleState `json:"rules,omitempty"`
	Alerts      []Alert     `json:"alerts,omitempty"`
	NextAlertID int64       `json:"next_alert_id,omitempty"`
}

// RuleState is one installed rule plus its firing keys.
type RuleState struct {
	Spec   Spec        `json:"spec"`
	Firing []KeyFiring `json:"firing,omitempty"`
}

// KeyFiring is one currently-firing (or cooling-down) key of a rule.
type KeyFiring struct {
	Key               string `json:"key"`
	Firing            bool   `json:"firing"`
	LastFiredUnixNano int64  `json:"last_fired_unix_nano,omitempty"`
}

// rule is a compiled Spec: durations parsed, defaults resolved, plus the
// engine's per-key runtime state.
type rule struct {
	spec       Spec
	threshold  float64
	hysteresis float64
	cooldown   time.Duration
	window     time.Duration // 0 = all-time estimate
	k          int
	minDelta   float64
	prefix     string

	// keys tracks per-key firing/cooldown state. A threshold rule holds
	// exactly its watched key forever; prefix and movers rules hold
	// only keys that have fired and drop them once resolved and out of
	// cooldown.
	keys map[string]*keyState
	// prev is a movers rule's baseline: each tracked key's value at the
	// previous tick. nil for other types.
	prev map[string]float64
	// baselined is false until a movers rule's first scan has seeded
	// prev; that scan emits nothing (otherwise installing the rule over
	// an already-populated store would report every key as a mover).
	baselined bool
	// top is a movers rule's candidate heap during a scan: the k largest
	// increases so far, the worst at top[0]. Empty between ticks.
	top []mover
}

// mover is one movers candidate: a scanned key, its value and its
// increase since the previous tick.
type mover struct {
	key   string
	val   float64
	delta float64
}

// worse orders movers candidates: a smaller increase ranks lower, and
// among equal increases the larger key does.
func (m mover) worse(o mover) bool {
	return m.delta < o.delta || (m.delta == o.delta && m.key > o.key)
}

type keyState struct {
	firing    bool
	lastFired int64 // unix nanos of the last firing transition
}

// compile validates spec against the store's Spec and returns the
// runtime rule. All validation failures are *BadRuleError except a
// windowed rule on an unwindowed store, which wraps
// sbitmap.ErrNotWindowed so the server can answer with the same typed
// window_not_configured error the query paths use.
func compile(spec Spec, store sbitmap.Spec) (*rule, error) {
	if spec.ID == "" {
		return nil, badRule("id", "required")
	}
	if len(spec.ID) > maxIDLen {
		return nil, badRule("id", "longer than %d bytes", maxIDLen)
	}
	r := &rule{
		spec:       spec,
		threshold:  spec.Threshold,
		hysteresis: DefaultHysteresis,
		k:          spec.K,
		minDelta:   spec.MinDelta,
		prefix:     spec.Prefix,
		keys:       make(map[string]*keyState),
	}
	if spec.Hysteresis != nil {
		h := *spec.Hysteresis
		if h < 0 || h >= 1 {
			return nil, badRule("hysteresis", "%v outside [0, 1)", h)
		}
		r.hysteresis = h
	}
	if spec.Cooldown != "" {
		d, err := time.ParseDuration(spec.Cooldown)
		if err != nil || d < 0 {
			return nil, badRule("cooldown", "%q is not a non-negative duration", spec.Cooldown)
		}
		r.cooldown = d
	}
	if spec.Window != "" {
		d, err := time.ParseDuration(spec.Window)
		if err != nil || d <= 0 {
			return nil, badRule("window", "%q is not a positive duration", spec.Window)
		}
		if !store.Windowed() {
			return nil, fmt.Errorf("rules: rule %q has window %q but %w", spec.ID, spec.Window, sbitmap.ErrNotWindowed)
		}
		if ret := store.Retention(); d > ret {
			return nil, badRule("window", "%s exceeds the store's retention %s", d, ret)
		}
		r.window = d
	}
	switch spec.Type {
	case TypeThreshold:
		if spec.Key == "" {
			return nil, badRule("key", "required for threshold rules")
		}
		if spec.Prefix != "" {
			return nil, badRule("prefix", "only valid for prefix and movers rules")
		}
		if spec.Threshold <= 0 {
			return nil, badRule("threshold", "must be > 0")
		}
		if spec.K != 0 || spec.MinDelta != 0 {
			return nil, badRule("k", "k/min_delta only valid for movers rules")
		}
		// The watched key is tracked from birth so the hot path and the
		// tick never have to discover it.
		r.keys[spec.Key] = &keyState{}
	case TypePrefix:
		if spec.Key != "" {
			return nil, badRule("key", "only valid for threshold rules (use prefix)")
		}
		if spec.Threshold <= 0 {
			return nil, badRule("threshold", "must be > 0")
		}
		if spec.K != 0 || spec.MinDelta != 0 {
			return nil, badRule("k", "k/min_delta only valid for movers rules")
		}
	case TypeMovers:
		if spec.Key != "" {
			return nil, badRule("key", "only valid for threshold rules (use prefix)")
		}
		if spec.Threshold != 0 {
			return nil, badRule("threshold", "only valid for threshold and prefix rules (use min_delta)")
		}
		if spec.K < 1 {
			return nil, badRule("k", "must be >= 1")
		}
		if spec.MinDelta < 0 {
			return nil, badRule("min_delta", "must be >= 0")
		}
		r.prev = make(map[string]float64)
	case "":
		return nil, badRule("type", "required")
	default:
		return nil, badRule("type", "%q is not threshold, prefix, or movers", spec.Type)
	}
	return r, nil
}

// ErrUnknownRule reports a Get/Delete of a rule ID that is not
// installed; the server maps it to HTTP 404 with code "unknown_rule".
var ErrUnknownRule = errors.New("rules: no such rule")
