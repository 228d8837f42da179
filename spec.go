package sbitmap

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/fm"
	"repro/internal/hyperloglog"
	"repro/internal/linearcount"
	"repro/internal/loglog"
	"repro/internal/mrbitmap"
	"repro/internal/virtualbitmap"
)

// Spec is the declarative face of the module: one value that names a
// sketch kind and dimensions it from the paper's shared (memory, N, ε)
// vocabulary. The same Spec works as a library call (Spec.New), a CLI flag
// or config-file string (ParseSpec / Spec.String), and a keyed Store's
// per-key template (NewStore), so every layer of a deployment names
// sketches the same way.
//
// Dimensioning rules:
//
//   - sbitmap: exactly two of {N, Eps, MemoryBits} — the third follows from
//     Equation (7) of the paper, as in the New / NewWithMemory constructors
//     and the sbdim tool.
//   - hll, loglog, fm, linearcount, adaptive: a memory budget. If
//     MemoryBits is zero, the budget defaults to what an S-bitmap needs for
//     (N, Eps) — the like-for-like accounting of the paper's Section 6.2.
//   - virtualbitmap, mrbitmap: a budget (as above) plus N, which centers
//     (respectively bounds) their accurate band.
//   - exact: no dimensioning; every field except Kind/Seed/Hash is ignored.
type Spec struct {
	// Kind selects the sketch algorithm.
	Kind Kind
	// N is the cardinality upper bound the sketch is dimensioned for.
	N float64
	// Eps is the target relative error (RRMSE) used for dimensioning.
	Eps float64
	// MemoryBits is an explicit memory budget in bits; zero derives the
	// budget from (N, Eps) where the kind needs one.
	MemoryBits int
	// Seed selects the hash seed; zero means the default seed 1.
	Seed uint64
	// Hash selects the hash family: "" or "mixer" (default),
	// "carterwegman", or "tabulation".
	Hash string
	// Resolution limits S-bitmap sampling decisions to d bits of hash
	// (the paper's Algorithm 2 uses d = 30); zero means the default 64.
	// Only valid for Kind sbitmap.
	Resolution uint
	// Window, when non-zero, is the sub-window width of the
	// "/windowed(width=…,ring=…)" modifier: a keyed Store built from the
	// Spec materializes per key a ring of Ring sub-window sketches of
	// width Window each and answers EstimateWindow by merging the
	// covering sub-windows on query. Zero means no time windowing.
	Window time.Duration
	// Ring is the number of sub-windows retained per key; the sliding
	// retention horizon is Window×Ring. Zero means DefaultWindowRing.
	// Only valid together with Window.
	Ring int
}

// DefaultWindowRing is the per-key sub-window count used when a
// windowed(...) modifier omits ring.
const DefaultWindowRing = 5

// Kind names a sketch algorithm constructible from a Spec.
type Kind string

// The sketch kinds of the module: the paper's S-bitmap plus every baseline
// of its Section 6 comparison and the exact reference counter.
const (
	KindSBitmap       Kind = "sbitmap"
	KindHLL           Kind = "hll"
	KindLogLog        Kind = "loglog"
	KindFM            Kind = "fm"
	KindLinearCount   Kind = "linearcount"
	KindVirtualBitmap Kind = "virtualbitmap"
	KindMRBitmap      Kind = "mrbitmap"
	KindAdaptive      Kind = "adaptive"
	KindExact         Kind = "exact"
)

// kindAliases maps accepted spellings (canonical names included) to
// canonical kinds, so CLI flags can use the short names of the paper's
// tables.
var kindAliases = map[string]Kind{
	"sbitmap":       KindSBitmap,
	"sb":            KindSBitmap,
	"hll":           KindHLL,
	"hyperloglog":   KindHLL,
	"loglog":        KindLogLog,
	"llog":          KindLogLog,
	"fm":            KindFM,
	"pcsa":          KindFM,
	"linearcount":   KindLinearCount,
	"lc":            KindLinearCount,
	"virtualbitmap": KindVirtualBitmap,
	"vb":            KindVirtualBitmap,
	"mrbitmap":      KindMRBitmap,
	"mr":            KindMRBitmap,
	"adaptive":      KindAdaptive,
	"exact":         KindExact,
}

// Kinds returns every constructible kind in deterministic order.
func Kinds() []Kind {
	return []Kind{
		KindSBitmap, KindHLL, KindLogLog, KindFM, KindLinearCount,
		KindVirtualBitmap, KindMRBitmap, KindAdaptive, KindExact,
	}
}

// ParseKind resolves a kind name or alias ("hll", "hyperloglog", "mr", …).
func ParseKind(name string) (Kind, error) {
	k, ok := kindAliases[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		known := make([]string, 0, len(kindAliases))
		for a := range kindAliases {
			known = append(known, a)
		}
		sort.Strings(known)
		return "", fmt.Errorf("sbitmap: unknown sketch kind %q (known: %s)", name, strings.Join(known, ", "))
	}
	return k, nil
}

// ParseSpec parses the string form of a Spec:
//
//	kind[:key=value[,key=value...]][/windowed(width=DUR[,ring=K])]
//
// e.g. "sbitmap:n=1e6,eps=0.01", "hll:mbits=4096,seed=7", "exact", or
// "hll:mbits=2048/windowed(width=1m,ring=5)". Keys are n, eps, mbits,
// seed, hash, and d (sampling resolution); kind accepts the aliases of
// ParseKind. The windowed(...) modifier takes a width duration (required,
// time.ParseDuration syntax) and a ring size (optional, default
// DefaultWindowRing). ParseSpec(s.String()) == s for every valid Spec.
func ParseSpec(s string) (Spec, error) {
	base, modifier, hasModifier := strings.Cut(s, "/")
	kindPart, params, _ := strings.Cut(base, ":")
	kind, err := ParseKind(kindPart)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{Kind: kind}
	if hasModifier {
		if err := spec.parseWindowModifier(modifier); err != nil {
			return Spec{}, err
		}
	}
	if strings.TrimSpace(params) == "" {
		return spec, nil
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if !ok || val == "" {
			return Spec{}, fmt.Errorf("sbitmap: spec parameter %q is not key=value", kv)
		}
		if seen[key] {
			// Silently letting the last duplicate win would make e.g.
			// "hll:mbits=64,mbits=128" a quiet configuration surprise.
			return Spec{}, fmt.Errorf("sbitmap: duplicate spec parameter %q", key)
		}
		seen[key] = true
		switch key {
		case "n":
			if spec.N, err = strconv.ParseFloat(val, 64); err != nil || !(spec.N > 0) || math.IsInf(spec.N, 0) {
				return Spec{}, fmt.Errorf("sbitmap: spec n=%q is not a positive number", val)
			}
		case "eps":
			if spec.Eps, err = strconv.ParseFloat(val, 64); err != nil || !(spec.Eps > 0) || math.IsInf(spec.Eps, 0) {
				return Spec{}, fmt.Errorf("sbitmap: spec eps=%q is not a positive number", val)
			}
		case "mbits":
			// Parsed as float so budgets can be written "4e3".
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0) || f != math.Trunc(f) || f > math.MaxInt32 {
				return Spec{}, fmt.Errorf("sbitmap: spec mbits=%q is not a positive bit count", val)
			}
			spec.MemoryBits = int(f)
		case "seed":
			if spec.Seed, err = strconv.ParseUint(val, 0, 64); err != nil {
				return Spec{}, fmt.Errorf("sbitmap: spec seed=%q is not an unsigned integer", val)
			}
		case "hash":
			spec.Hash = strings.ToLower(val)
			if _, err := hashOption(spec.Hash); err != nil {
				return Spec{}, err
			}
		case "d":
			d, err := strconv.ParseUint(val, 10, 8)
			if err != nil || d < 1 || d > 64 {
				return Spec{}, fmt.Errorf("sbitmap: spec d=%q is not a resolution in [1, 64]", val)
			}
			spec.Resolution = uint(d)
		default:
			return Spec{}, fmt.Errorf("sbitmap: unknown spec parameter %q (known: n, eps, mbits, seed, hash, d)", key)
		}
	}
	return spec, nil
}

// parseWindowModifier parses the "windowed(width=…,ring=…)" suffix of a
// spec string into the receiver's Window/Ring fields.
func (s *Spec) parseWindowModifier(mod string) error {
	body, ok := strings.CutPrefix(strings.TrimSpace(mod), "windowed(")
	if !ok {
		return fmt.Errorf("sbitmap: unknown spec modifier %q (known: windowed(width=…,ring=…))", mod)
	}
	body, ok = strings.CutSuffix(body, ")")
	if !ok {
		return fmt.Errorf("sbitmap: spec modifier %q is missing its closing parenthesis", mod)
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(body, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if !ok || val == "" {
			return fmt.Errorf("sbitmap: windowed parameter %q is not key=value", kv)
		}
		if seen[key] {
			return fmt.Errorf("sbitmap: duplicate windowed parameter %q", key)
		}
		seen[key] = true
		switch key {
		case "width":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return fmt.Errorf("sbitmap: windowed width=%q is not a positive duration", val)
			}
			s.Window = d
		case "ring":
			r, err := strconv.Atoi(val)
			if err != nil || r < 1 || r > maxWindowRing {
				return fmt.Errorf("sbitmap: windowed ring=%q is not an integer in [1, %d]", val, maxWindowRing)
			}
			s.Ring = r
		default:
			return fmt.Errorf("sbitmap: unknown windowed parameter %q (known: width, ring)", key)
		}
	}
	if s.Window == 0 {
		return fmt.Errorf("sbitmap: windowed modifier needs a width")
	}
	if s.Ring == 0 {
		s.Ring = DefaultWindowRing
	}
	if s.Window > math.MaxInt64/time.Duration(s.Ring) {
		return fmt.Errorf("sbitmap: windowed retention %s×%d overflows a duration", s.Window, s.Ring)
	}
	return nil
}

// MustSpec is ParseSpec for compile-time-constant strings; it panics on
// error.
func MustSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the Spec in the canonical form accepted by ParseSpec,
// omitting zero-valued (defaulted) fields.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(string(s.Kind))
	sep := byte(':')
	put := func(key, val string) {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if s.N > 0 {
		put("n", strconv.FormatFloat(s.N, 'g', -1, 64))
	}
	if s.Eps > 0 {
		put("eps", strconv.FormatFloat(s.Eps, 'g', -1, 64))
	}
	if s.MemoryBits > 0 {
		put("mbits", strconv.Itoa(s.MemoryBits))
	}
	if s.Seed != 0 {
		put("seed", strconv.FormatUint(s.Seed, 10))
	}
	if s.Hash != "" {
		put("hash", s.Hash)
	}
	if s.Resolution != 0 {
		put("d", strconv.FormatUint(uint64(s.Resolution), 10))
	}
	if s.Window != 0 {
		b.WriteString("/windowed(width=")
		b.WriteString(s.Window.String())
		if s.Ring != 0 {
			b.WriteString(",ring=")
			b.WriteString(strconv.Itoa(s.Ring))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// maxWindowRing bounds the per-key sub-window count; beyond this the
// per-key footprint, not the windowing, is the problem. A ring snapshot
// records the ring size and its live count in 16 bits each, so the bound
// is the largest count they hold.
const maxWindowRing = 1<<16 - 1

// Windowed reports whether the Spec carries a windowed(...) modifier,
// i.e. whether a Store built from it keeps per-key sub-window rings.
func (s Spec) Windowed() bool { return s.Window != 0 }

// Retention returns the sliding retention horizon of a windowed Spec:
// Window × Ring (Ring defaulting to DefaultWindowRing). Records older
// than the horizon are no longer queryable; zero for unwindowed specs.
func (s Spec) Retention() time.Duration {
	if s.Window == 0 {
		return 0
	}
	r := s.Ring
	if r == 0 {
		r = DefaultWindowRing
	}
	return s.Window * time.Duration(r)
}

// MaxEstimate returns the largest estimate a counter of the Spec can
// report, with the cardinality bound N it was dimensioned for; ok is
// false for kinds whose estimates have no such ceiling. For the S-bitmap
// the ceiling is t_{k*}, the estimate at the truncation point k*
// (Equation 8): it lies near N, above or below it, and no stream,
// window or sub-window estimate ever exceeds it. Every other kind
// reports ok = false.
func (s Spec) MaxEstimate() (maxEst, n float64, ok bool) {
	if s.Kind != KindSBitmap {
		return 0, 0, false
	}
	cfg, err := s.sbitmapConfig()
	if err != nil {
		return 0, 0, false
	}
	return cfg.T(cfg.KMax()), cfg.N(), true
}

// base strips the windowed modifier: the Spec of one sub-window sketch.
func (s Spec) base() Spec {
	s.Window, s.Ring = 0, 0
	return s
}

// hashOption maps a hash-family name to its Option; "" and "mixer" mean
// the default (no option).
func hashOption(name string) (Option, error) {
	switch name {
	case "", "mixer":
		return nil, nil
	case "carterwegman", "cw":
		return WithCarterWegman(), nil
	case "tabulation":
		return WithTabulation(), nil
	default:
		return nil, fmt.Errorf("sbitmap: unknown hash family %q (known: mixer, carterwegman, tabulation)", name)
	}
}

// options materializes the Spec's seed/hash/resolution fields as
// constructor options.
func (s Spec) options() ([]Option, error) {
	var opts []Option
	if s.Seed != 0 {
		opts = append(opts, WithSeed(s.Seed))
	}
	hashOpt, err := hashOption(s.Hash)
	if err != nil {
		return nil, err
	}
	if hashOpt != nil {
		opts = append(opts, hashOpt)
	}
	if s.Resolution != 0 {
		if s.Kind != KindSBitmap {
			return nil, fmt.Errorf("sbitmap: spec %s: sampling resolution d applies only to sbitmap", s.Kind)
		}
		opts = append(opts, WithSamplingResolution(s.Resolution))
	}
	return opts, nil
}

// budget returns the Spec's memory budget in bits: MemoryBits when set,
// otherwise the S-bitmap-equivalent budget for (N, Eps) — the shared
// accounting under which the paper's Section 6.2 compares all sketches.
func (s Spec) budget() (int, error) {
	if s.MemoryBits > 0 {
		return s.MemoryBits, nil
	}
	if s.N > 0 && s.Eps > 0 {
		return Memory(s.N, s.Eps)
	}
	return 0, fmt.Errorf("sbitmap: spec %s needs mbits or both n and eps to fix a memory budget", s.Kind)
}

// New constructs the counter the Spec describes. A windowed Spec does
// not describe a single counter — build a keyed Store from it instead.
func (s Spec) New() (Counter, error) {
	if s.Window != 0 {
		return nil, fmt.Errorf("sbitmap: spec %s is windowed; build a keyed Store from it (NewStore)", s)
	}
	if s.Ring != 0 {
		return nil, fmt.Errorf("sbitmap: spec ring=%d without a window width", s.Ring)
	}
	opts, err := s.options()
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindSBitmap:
		return s.newSBitmap(opts)
	case KindExact:
		return &Exact{c: exact.New()}, nil
	case KindHLL, KindLogLog, KindFM, KindLinearCount, KindAdaptive:
	case KindVirtualBitmap:
		if !(s.N > 0) {
			return nil, fmt.Errorf("sbitmap: spec virtualbitmap needs n (the center of its accurate band)")
		}
	case KindMRBitmap:
		if !(s.N > 0) {
			return nil, fmt.Errorf("sbitmap: spec mrbitmap needs n (its coverage bound)")
		}
	case "":
		return nil, fmt.Errorf("sbitmap: spec has no kind")
	default:
		return nil, fmt.Errorf("sbitmap: unknown sketch kind %q", s.Kind)
	}
	// The baselines are fitted into one memory budget, the like-for-like
	// accounting of the paper's Section 6.2.
	b, err := s.budget()
	if err != nil {
		return nil, err
	}
	h := buildOptions(opts).newHasher()
	switch s.Kind {
	case KindHLL: // 5-bit registers, power-of-two register count
		return &HyperLogLog{sk: *hyperloglog.NewWithHasher(hyperloglog.KBitsForBudget(b), h)}, nil
	case KindLogLog: // 5-bit registers, power-of-two register count
		return &LogLog{sk: loglog.NewWithHasher(loglog.KBitsForBudget(b), h)}, nil
	case KindFM: // 32-bit registers
		return &FM{sk: fm.NewWithHasher(fm.MemoryForBits(b), h)}, nil
	case KindLinearCount:
		return &LinearCounting{sk: linearcount.NewWithHasher(b, h)}, nil
	case KindAdaptive: // 64 bits per retained hash
		return &AdaptiveSampler{sk: adaptive.NewSamplerWithHasher(adaptive.CapacityForBits(b), h)}, nil
	case KindVirtualBitmap: // sampling rate centering the accurate band on N
		return &VirtualBitmap{sk: virtualbitmap.NewWithHasher(b, virtualbitmap.RateFor(b, s.N), h)}, nil
	default: // KindMRBitmap, quasi-optimal for cardinalities up to N
		cfg, err := mrbitmap.Dimension(b, s.N)
		if err != nil {
			return nil, err
		}
		return &MRBitmap{sk: mrbitmap.NewWithHasher(cfg, h)}, nil
	}
}

// newSBitmap dimensions an S-bitmap from exactly two of {N, Eps,
// MemoryBits}, mirroring the sbdim calculator.
func (s Spec) newSBitmap(opts []Option) (Counter, error) {
	cfg, err := s.sbitmapConfig()
	if err != nil {
		return nil, err
	}
	return fromConfig(cfg, opts...)
}

// sbitmapConfig resolves the Spec's S-bitmap dimensioning — the pure math
// of newSBitmap, shared with the slot tables so a keyed Store computes the
// Config once instead of once per materialized key.
func (s Spec) sbitmapConfig() (*core.Config, error) {
	given := 0
	for _, set := range []bool{s.N > 0, s.Eps > 0, s.MemoryBits > 0} {
		if set {
			given++
		}
	}
	if given != 2 {
		return nil, fmt.Errorf("sbitmap: spec sbitmap needs exactly two of n, eps, mbits (got %d)", given)
	}
	switch {
	case s.N > 0 && s.Eps > 0:
		return core.NewConfigNE(s.N, s.Eps)
	case s.MemoryBits > 0 && s.N > 0:
		return core.NewConfigMN(s.MemoryBits, s.N)
	default: // MemoryBits + Eps: derive N from Equation (6) via C = 1 + ε⁻².
		return core.NewConfigMC(s.MemoryBits, 1+1/(s.Eps*s.Eps))
	}
}
