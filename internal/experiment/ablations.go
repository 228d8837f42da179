package experiment

import (
	"fmt"
	"math"

	"repro/internal/asciiplot"
	"repro/internal/core"
	"repro/internal/tablewriter"
	"repro/internal/uhash"
)

// The ablation experiments isolate the design decisions the paper argues
// for: the Theorem-2 rate schedule, the Equation-8 truncation,
// hash-family insensitivity, and the sampling resolution d.

func init() {
	register("ablation_rates",
		"Ablation: Theorem-2 rates vs naive geometric rates vs rates without the occupancy correction",
		runAblationRates)
	register("ablation_trunc",
		"Ablation: estimator with vs without the Equation-8 truncation near the N boundary",
		runAblationTrunc)
	register("ablation_hash",
		"Ablation: mixing hash vs Carter-Wegman vs tabulation hashing",
		runAblationHash)
	register("ablation_d",
		"Ablation: sampling-fraction resolution d ∈ {8, 12, 16, 30, 64}",
		runAblationD)
}

// runAblationRates shows that scale-invariance comes from the dimensioning
// rule, not from adaptive sampling per se: the same sketch machinery under
// naive schedules has errors that drift with n.
func runAblationRates(o Options) (*Result, error) {
	const m = 1800
	const n = 1 << 20
	optimal, err := core.NewConfigMN(m, n)
	if err != nil {
		return nil, err
	}
	geoP, err := core.GeometricRates(m, n)
	if err != nil {
		return nil, err
	}
	geometric, err := core.NewConfigRates(m, geoP)
	if err != nil {
		return nil, err
	}
	uncorrP, err := core.UncorrectedRates(m, optimal.C())
	if err != nil {
		return nil, err
	}
	uncorrected, err := core.NewConfigRates(m, uncorrP)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name string
		cfg  *core.Config
	}{
		{"theorem2", optimal},
		{"geometric", geometric},
		{"uncorrected", uncorrected},
	}
	ns := logspaceInts(100, n, 1)

	res := &Result{ID: "ablation_rates", Title: Title("ablation_rates")}
	chart := &asciiplot.LineChart{
		Title:  "Rate-schedule ablation — RRMSE% vs cardinality (m=1800, N=2^20)",
		XLabel: "cardinality (log10)",
		YLabel: "RRMSE %",
		LogX:   true,
	}
	tbl := tablewriter.New("RRMSE (%) by schedule", "n", "theorem2", "geometric", "uncorrected")
	rows := map[int][]string{}
	for _, v := range ns {
		rows[v] = []string{fmt.Sprintf("%d", v)}
	}
	for _, variant := range variants {
		series := asciiplot.Series{Name: variant.name}
		minR, maxR := 1.0, 0.0
		cfg := variant.cfg
		for _, v := range ns {
			sum := cell(o, func(seed uint64) Counter {
				return core.NewSketch(cfg, seed)
			}, v, hashString("abl_rates"+variant.name))
			r := sum.RRMSE()
			series.X = append(series.X, float64(v))
			series.Y = append(series.Y, 100*r)
			rows[v] = append(rows[v], fmt.Sprintf("%.2f", 100*r))
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		if err := chart.Add(series); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: RRMSE spread across the sweep %.2f%%..%.2f%% (ratio %.2f)",
			variant.name, 100*minR, 100*maxR, maxR/minR))
	}
	for _, v := range ns {
		tbl.AddRow(rows[v]...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Plots = append(res.Plots, chart.String())
	res.Notes = append(res.Notes,
		"expected: theorem2 flat; geometric drifts strongly with n; uncorrected degrades as the bitmap fills")
	return res, nil
}

// runAblationTrunc isolates Equation (8). Rather than Monte Carlo — whose
// replicate noise at the boundary would swamp the few-percent effect — it
// computes the EXACT RRMSE of both estimators by dynamic programming over
// the Theorem-1 Markov chain, so the table is deterministic to numerical
// precision.
func runAblationTrunc(o Options) (*Result, error) {
	const m = 400
	truncated, err := core.NewConfigMN(m, 2e4)
	if err != nil {
		return nil, err
	}
	// The untruncated variant uses the same Theorem-2 rates (pinned past
	// k*, as required for monotonicity) but lets the estimator table keep
	// growing beyond k*.
	p := make([]float64, m)
	for k := 1; k <= m; k++ {
		p[k-1] = truncated.P(k)
	}
	untruncated, err := core.NewConfigRates(m, p)
	if err != nil {
		return nil, err
	}
	n := int(truncated.N())

	fracs := []float64{0.5, 0.8, 0.9, 0.95, 1.0}
	targets := make(map[int]float64, len(fracs))
	for _, f := range fracs {
		targets[int(f*float64(n))] = f
	}

	tbl := tablewriter.New(
		fmt.Sprintf("Exact RRMSE (%%) near the boundary (m=%d, N=%d, ε=%.2f%%)", m, n, 100*truncated.Epsilon()),
		"n/N", "truncated (Eq. 8)", "untruncated", "exact bias% (truncated)")
	res := &Result{ID: "ablation_trunc", Title: Title("ablation_trunc")}

	chainT := core.NewChain(truncated)
	chainU := core.NewChain(untruncated)
	for t := 1; t <= n; t++ {
		chainT.Step()
		chainU.Step()
		f, hit := targets[t]
		if !hit {
			continue
		}
		tm, tv := chainT.EstimateMoments()
		um, uv := chainU.EstimateMoments()
		nn := float64(t)
		rrmse := func(mean, variance float64) float64 {
			d := mean - nn
			return math.Sqrt(variance+d*d) / nn
		}
		tbl.AddRow(fmt.Sprintf("%.2f", f),
			fmt.Sprintf("%.3f", 100*rrmse(tm, tv)),
			fmt.Sprintf("%.3f", 100*rrmse(um, uv)),
			fmt.Sprintf("%+.3f", 100*(tm/nn-1)))
		o.tracef("ablation_trunc n/N=%.2f done\n", f)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"computed exactly (no Monte Carlo) by DP over the Theorem-1 chain",
		"expected: identical away from the boundary; approaching n = N the truncated estimator trades a small negative bias for a variance cut, ending BELOW ε while the untruncated one stays at ε — the paper's Section 5.2 remark")
	return res, nil
}

// runAblationHash verifies the universal-hash modeling assumption: three
// structurally different hash families give statistically identical
// accuracy.
func runAblationHash(o Options) (*Result, error) {
	const m = 1800
	const n = 1 << 17
	cfg, err := core.NewConfigMN(m, n)
	if err != nil {
		return nil, err
	}
	families := []struct {
		name string
		mk   func(seed uint64) uhash.Hasher
	}{
		{"mixer", func(s uint64) uhash.Hasher { return uhash.NewMixer(s) }},
		{"carter-wegman", func(s uint64) uhash.Hasher { return uhash.NewCarterWegman(s) }},
		{"tabulation", func(s uint64) uhash.Hasher { return uhash.NewTabulation(s) }},
	}
	ns := []int{100, 10000, 100000}
	tbl := tablewriter.New(fmt.Sprintf("RRMSE (%%) by hash family (theory %.2f%%)", 100*cfg.Epsilon()),
		"n", families[0].name, families[1].name, families[2].name)
	res := &Result{ID: "ablation_hash", Title: Title("ablation_hash")}
	for _, v := range ns {
		row := []string{fmt.Sprintf("%d", v)}
		for _, fam := range families {
			mk := fam.mk
			sum := cell(o, func(seed uint64) Counter {
				return core.NewSketch(cfg, 0, core.WithHasher(mk(seed)))
			}, v, hashString("abl_hash"+fam.name))
			row = append(row, fmt.Sprintf("%.2f", 100*sum.RRMSE()))
		}
		tbl.AddRow(row...)
		o.tracef("ablation_hash n=%d done\n", v)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"expected: all three columns within Monte-Carlo noise of the theory line — accuracy does not hinge on a cryptographic-strength hash")
	return res, nil
}

// runAblationD sweeps the sampling resolution d of Algorithm 2. Small d
// floors the achievable sampling rate at 2^-d, biasing large-n estimates;
// d = 30 (the paper's suggestion) is already indistinguishable from 64.
func runAblationD(o Options) (*Result, error) {
	const m = 1800
	const n = 1 << 20
	cfg, err := core.NewConfigMN(m, n)
	if err != nil {
		return nil, err
	}
	ds := []uint{8, 12, 16, 30, 64}
	ns := []int{1000, 100000, 1 << 20}
	header := []string{"n"}
	for _, d := range ds {
		header = append(header, fmt.Sprintf("d=%d", d))
	}
	tbl := tablewriter.New(fmt.Sprintf("RRMSE (%%) by sampling resolution (theory %.2f%%)", 100*cfg.Epsilon()), header...)
	res := &Result{ID: "ablation_d", Title: Title("ablation_d")}
	for _, v := range ns {
		row := []string{fmt.Sprintf("%d", v)}
		for _, d := range ds {
			d := d
			sum := cell(o, func(seed uint64) Counter {
				return core.NewSketch(cfg, seed, core.WithResolution(d))
			}, v, hashString(fmt.Sprintf("abl_d%d", d)))
			row = append(row, fmt.Sprintf("%.2f", 100*sum.RRMSE()))
		}
		tbl.AddRow(row...)
		o.tracef("ablation_d n=%d done\n", v)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"smallest rate in this configuration: p_k* = "+fmt.Sprintf("%.2e", cfg.P(cfg.KMax()))+
			"; resolutions with 2^-d above that floor the rates and bias large-n estimates",
		"expected: d=30 and d=64 identical; d=8 biased at n ≥ 10^5")
	return res, nil
}
