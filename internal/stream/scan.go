package stream

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// ScanTrace is the synthetic scan/superspreader detection workload: a
// sea of benign background flows (small, log-uniform spreads), a thin
// borderline band straddling the detection threshold (so precision and
// recall are measured where detection is actually hard, not on a
// cleanly separated population), and injected scanners whose spreads
// sit decisively above it — Estan et al.'s port-scan setting with known
// ground truth. The trace is a KeyedSpread underneath: deterministic
// for a seed, exact per-key spreads, round-interleaved emission (the
// scanners, having the most records, persist through the whole trace
// the way a real scan rides alongside background traffic).
type ScanTrace struct {
	*KeyedSpread
	cfg ScanTraceConfig
}

// ScanTraceConfig shapes a ScanTrace. Key indexes are laid out
// background first, then borderline, then scanners.
type ScanTraceConfig struct {
	// BackgroundKeys benign sources with log-uniform spreads in
	// [1, BackgroundMax] — mostly tiny, a few mid-sized, the shape of
	// real per-source fan-out.
	BackgroundKeys int
	BackgroundMax  int
	// Borderline keys with spreads uniform in [BorderlineLo,
	// BorderlineHi]; place the detection threshold inside this band.
	Borderline                 int
	BorderlineLo, BorderlineHi int
	// Scanners keys with spreads uniform in [ScannerLo, ScannerHi],
	// well above the threshold.
	Scanners             int
	ScannerLo, ScannerHi int
	// Dup is the record duplication factor (>= 1): a spread-s key emits
	// about s·Dup records, duplicates uniform over its items.
	Dup float64
	// Seed makes the whole trace (spreads, identities, interleaving)
	// deterministic.
	Seed uint64
}

// NewScanTrace builds the trace. Panics on a nonsensical config
// (negative counts, inverted ranges, Dup < 1) — configs are code, not
// input.
func NewScanTrace(cfg ScanTraceConfig) *ScanTrace {
	if cfg.BackgroundKeys < 0 || cfg.Borderline < 0 || cfg.Scanners < 0 {
		panic(fmt.Sprintf("stream: negative ScanTrace population %+v", cfg))
	}
	if cfg.BackgroundKeys > 0 && cfg.BackgroundMax < 1 {
		panic(fmt.Sprintf("stream: ScanTrace background max %d < 1", cfg.BackgroundMax))
	}
	if cfg.Borderline > 0 && (cfg.BorderlineLo < 1 || cfg.BorderlineHi < cfg.BorderlineLo) {
		panic(fmt.Sprintf("stream: ScanTrace borderline range [%d, %d]", cfg.BorderlineLo, cfg.BorderlineHi))
	}
	if cfg.Scanners > 0 && (cfg.ScannerLo < 1 || cfg.ScannerHi < cfg.ScannerLo) {
		panic(fmt.Sprintf("stream: ScanTrace scanner range [%d, %d]", cfg.ScannerLo, cfg.ScannerHi))
	}
	spreads := make([]int, 0, cfg.BackgroundKeys+cfg.Borderline+cfg.Scanners)
	roll := xrand.New(cfg.Seed ^ 0x5ca17ace)
	for i := 0; i < cfg.BackgroundKeys; i++ {
		// Log-uniform in [1, max]: most sources touch a handful of
		// targets, a few fan out to hundreds.
		s := int(math.Exp(roll.Float64() * math.Log(float64(cfg.BackgroundMax))))
		if s < 1 {
			s = 1
		}
		if s > cfg.BackgroundMax {
			s = cfg.BackgroundMax
		}
		spreads = append(spreads, s)
	}
	for i := 0; i < cfg.Borderline; i++ {
		spreads = append(spreads, cfg.BorderlineLo+roll.Intn(cfg.BorderlineHi-cfg.BorderlineLo+1))
	}
	for i := 0; i < cfg.Scanners; i++ {
		spreads = append(spreads, cfg.ScannerLo+roll.Intn(cfg.ScannerHi-cfg.ScannerLo+1))
	}
	return &ScanTrace{
		KeyedSpread: NewKeyedSpread(spreads, cfg.Dup, cfg.Seed),
		cfg:         cfg,
	}
}

// Config returns the trace's configuration.
func (t *ScanTrace) Config() ScanTraceConfig { return t.cfg }

// NumKeys returns the total key population (background + borderline +
// scanners), indexable by the methods below.
func (t *ScanTrace) NumKeys() int {
	return t.cfg.BackgroundKeys + t.cfg.Borderline + t.cfg.Scanners
}

// IsScanner reports whether key index k is one of the injected
// scanners.
func (t *ScanTrace) IsScanner(k int) bool {
	return k >= t.cfg.BackgroundKeys+t.cfg.Borderline
}

// TruePositives returns the key indexes whose exact spread exceeds
// threshold — the detection ground truth. With the threshold inside the
// borderline band this includes every scanner, the upper part of the
// band, and nothing else.
func (t *ScanTrace) TruePositives(threshold float64) []int {
	var out []int
	for k := 0; k < t.NumKeys(); k++ {
		if float64(t.Spread(k)) > threshold {
			out = append(out, k)
		}
	}
	return out
}

// KeyString is the canonical string form of a trace key for the keyed
// HTTP/NDJSON surfaces (the Store's string keys): 16 hex digits.
// flowgen and the server's detection gate test emit this form, so their
// traffic and ground truth agree.
func KeyString(key uint64) string { return fmt.Sprintf("%016x", key) }
