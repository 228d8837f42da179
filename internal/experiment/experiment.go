// Package experiment is the reproduction harness: one registered runner
// per table or figure in the paper's evaluation (Sections 5-7), plus the
// ablation studies of ablations.go.
//
// Each runner produces a Result holding the regenerated tables and ASCII
// figures together with paper-comparison notes. Runners accept an Options
// value controlling fidelity: replication is adaptive — each (algorithm,
// cardinality) cell spends at most CellBudget sketch updates, clamped to
// [MinReps, MaxReps] replicates — so the same code path scales from a
// seconds-long smoke run to a full paper-fidelity regeneration
// (cmd/sbench -full).
package experiment

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/tablewriter"
)

// Counter is the minimal sketch surface the harness needs; every sketch in
// this module satisfies it (it mirrors the root package's Counter).
type Counter interface {
	AddUint64(uint64) bool
	Estimate() float64
	SizeBits() int
}

// Options controls experiment fidelity and determinism.
type Options struct {
	// Seed derives every stream and sketch seed; fixed default 1.
	Seed uint64
	// Workers bounds replicate parallelism; 0 = GOMAXPROCS.
	Workers int
	// CellBudget caps the number of sketch updates spent per (algorithm,
	// cardinality) cell; replicates = CellBudget/n clamped to
	// [MinReps, MaxReps]. 0 = 2e6 (a quick run).
	CellBudget int
	// MinReps/MaxReps clamp adaptive replication; 0 = 20 / 1000.
	MinReps int
	MaxReps int
	// Trace receives progress lines when non-nil.
	Trace io.Writer
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CellBudget <= 0 {
		o.CellBudget = 2_000_000
	}
	if o.MinReps <= 0 {
		o.MinReps = 20
	}
	if o.MaxReps <= 0 {
		o.MaxReps = 1000
	}
	return o
}

// reps returns the adaptive replicate count for a cell of cardinality n.
func (o Options) reps(n int) int {
	if n < 1 {
		n = 1
	}
	r := o.CellBudget / n
	if r < o.MinReps {
		r = o.MinReps
	}
	if r > o.MaxReps {
		r = o.MaxReps
	}
	return r
}

func (o Options) tracef(format string, args ...interface{}) {
	if o.Trace != nil {
		fmt.Fprintf(o.Trace, format, args...)
	}
}

// Result is the output of one experiment run.
type Result struct {
	ID     string
	Title  string
	Tables []*tablewriter.Table
	Plots  []string // pre-rendered ASCII figures
	Notes  []string // paper-comparison commentary
}

// Render writes the full result (tables, plots, notes) to w.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, p := range r.Plots {
		if _, err := fmt.Fprintln(w, p); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVs writes each of the result's tables as a CSV file named
// <id>_<index>.csv under dir, returning the written paths. The caller
// provides the writer factory so the package stays filesystem-free in
// tests.
func (r *Result) WriteCSVs(create func(name string) (io.WriteCloser, error)) ([]string, error) {
	var paths []string
	for i, t := range r.Tables {
		name := fmt.Sprintf("%s_%d.csv", r.ID, i)
		f, err := create(name)
		if err != nil {
			return paths, err
		}
		werr := t.WriteCSV(f)
		cerr := f.Close()
		if werr != nil {
			return paths, werr
		}
		if cerr != nil {
			return paths, cerr
		}
		paths = append(paths, name)
	}
	return paths, nil
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

var registry = map[string]struct {
	title  string
	runner Runner
}{}

// register is called from each experiment file's init.
func register(id, title string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = struct {
		title  string
		runner Runner
	}{title, r}
}

// IDs returns all registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered title for id ("" if unknown).
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id.
func Run(id string, o Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.runner(o.withDefaults())
}

// makeCounter builds a fresh sketch for one replicate.
type makeCounter func(seed uint64) Counter

// BatchCounter is the optional batch-ingestion face of a Counter,
// mirroring the root package's BulkAdder uint64 surface; every sketch in
// this module implements it.
type BatchCounter interface {
	AddBatch64(items []uint64) int
}

// ingestBufLen is the batch length of the harness's stream driver: large
// enough to amortize dispatch, small enough (8 KiB) to stay cache-resident
// alongside the sketch.
const ingestBufLen = 1024

// ingest drains st into sk, through the sketch's batch path when it has
// one (all module sketches do) and item-at-a-time otherwise. Every
// replicate of every experiment runs through here, so the reproduction
// pipeline itself exercises — and its runtimes benefit from — the same
// fused ingestion path production callers use.
func ingest(sk Counter, st stream.Stream) {
	if bc, ok := sk.(BatchCounter); ok {
		buf := make([]uint64, ingestBufLen)
		stream.ForEachBatch(st, buf, func(b []uint64) { bc.AddBatch64(b) })
		return
	}
	stream.ForEach(st, func(x uint64) { sk.AddUint64(x) })
}

// cell measures the estimation-error distribution of one (sketch factory,
// cardinality) cell: reps() replicates, each streaming n fresh distinct
// items into a fresh sketch, in parallel. Distinct-only streams are used
// because every sketch's state is duplicate-invariant (a property verified
// by each package's tests); the netflow experiments exercise duplicated
// streams separately.
func cell(o Options, mk makeCounter, n int, cellSeed uint64) *stats.ErrorSummary {
	reps := o.reps(n)
	errs := make([]float64, reps)
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.Workers)
	for rep := 0; rep < reps; rep++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(rep int) {
			defer wg.Done()
			defer func() { <-sem }()
			seed := o.Seed ^ cellSeed ^ (uint64(rep+1) * 0x9e3779b97f4a7c15)
			sk := mk(seed)
			ingest(sk, stream.NewDistinct(n, seed^0xabcdef12))
			errs[rep] = sk.Estimate()/float64(n) - 1
		}(rep)
	}
	wg.Wait()
	var sum stats.ErrorSummary
	for _, e := range errs {
		sum.AddRelErr(e)
	}
	return &sum
}

// pct renders a fraction as a percentage string with two decimals.
func pct(x float64) string { return fmt.Sprintf("%.2f", 100*x) }

// logspaceInts returns approximately geometric integer steps from lo to hi
// (inclusive), deduplicated and sorted.
func logspaceInts(lo, hi int, perDecade int) []int {
	if lo < 1 {
		lo = 1
	}
	var out []int
	ratio := math.Pow(10, 1/float64(perDecade))
	x := float64(lo)
	for x < float64(hi) {
		out = append(out, int(x+0.5))
		x *= ratio
	}
	out = append(out, hi)
	sort.Ints(out)
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}
