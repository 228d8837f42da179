// Command sbench regenerates the tables and figures of "Distinct Counting
// with a Self-Learning Bitmap" (Chen, Cao, Shepp & Nguyen, ICDE 2009).
//
// Usage:
//
//	sbench -list
//	sbench -run fig2,table3            # quick regeneration (seconds each)
//	sbench -run all -full              # paper-fidelity run (minutes)
//	sbench -run fig4 -budget 50000000  # explicit per-cell update budget
//
// Beyond the registered experiments, -compare runs an ad-hoc like-for-like
// accuracy study over any sketches named in the module's shared spec
// vocabulary (sbitmap.ParseSpec) — the Section 6 methodology applied to
// whatever configurations you are considering deploying:
//
//	sbench -compare "sbitmap:n=1e6,eps=0.01;hll:mbits=30000" -distinct 200000
//
// Each experiment prints its regenerated tables, an ASCII rendering of the
// figure, and notes comparing the measured shape against the paper's
// published numbers. `sbench -run table2` regenerates the paper's memory
// comparison (Table 2); `sbench -run all -full` is the full record.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	sbitmap "repro"
	"repro/internal/experiment"
	"repro/internal/stream"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids and exit")
		run      = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		full     = flag.Bool("full", false, "paper-fidelity run (cell budget 5e7, up to 1000 replicates)")
		budget   = flag.Int("budget", 0, "override per-cell update budget (default 2e6; -full sets 5e7)")
		seed     = flag.Uint64("seed", 1, "base PRNG seed")
		workers  = flag.Int("workers", 0, "worker goroutines (default GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "trace per-cell progress to stderr")
		csvDir   = flag.String("csv", "", "also write each regenerated table as CSV into this directory")
		compare  = flag.String("compare", "", "semicolon-separated sketch specs for an ad-hoc accuracy comparison")
		distinct = flag.Int("distinct", 100_000, "true distinct count for -compare")
		reps     = flag.Int("reps", 20, "replicates per spec for -compare")
	)
	flag.Parse()

	if *compare != "" {
		if err := runCompare(*compare, *distinct, *reps, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "sbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, id := range experiment.IDs() {
			fmt.Printf("  %-16s %s\n", id, experiment.Title(id))
		}
		if *run == "" && !*list {
			fmt.Println("\nrun with: sbench -run <id>[,<id>...] | -run all")
		}
		return
	}

	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = experiment.IDs()
	}

	o := experiment.Options{Seed: *seed, Workers: *workers}
	if *full {
		o.CellBudget = 50_000_000
	}
	if *budget > 0 {
		o.CellBudget = *budget
	}
	if *verbose {
		o.Trace = os.Stderr
	}

	failed := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		res, err := experiment.Run(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sbench: %s: render: %v\n", id, err)
			failed = true
			continue
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "sbench: %v\n", err)
				os.Exit(1)
			}
			paths, err := res.WriteCSVs(func(name string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(*csvDir, name))
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "sbench: %s: csv: %v\n", id, err)
				failed = true
				continue
			}
			fmt.Printf("(csv: %s)\n", strings.Join(paths, ", "))
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// runCompare measures each spec's empirical RRMSE at one cardinality over
// replicated distinct streams — the paper's accuracy metric (Section 6.1)
// applied to user-chosen configurations through the public Spec API.
func runCompare(specList string, distinct, reps int, seed uint64) error {
	if distinct < 1 {
		return fmt.Errorf("-distinct must be ≥ 1")
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be ≥ 1")
	}
	type row struct {
		spec  sbitmap.Spec
		rrmse float64
		bias  float64
		bits  int
	}
	var rows []row
	for _, s := range strings.Split(specList, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		spec, err := sbitmap.ParseSpec(s)
		if err != nil {
			return err
		}
		var se, me float64
		bits := 0
		for rep := 0; rep < reps; rep++ {
			repSpec := spec
			repSpec.Seed = seed + uint64(rep)*0x9e3779b97f4a7c15
			c, err := repSpec.New()
			if err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
			st := stream.NewDistinct(distinct, seed+uint64(rep)*131+7)
			stream.ForEach(st, func(x uint64) { c.AddUint64(x) })
			d := c.Estimate()/float64(distinct) - 1
			se += d * d
			me += d
			bits = c.SizeBits()
		}
		rows = append(rows, row{
			spec:  spec,
			rrmse: math.Sqrt(se / float64(reps)),
			bias:  me / float64(reps),
			bits:  bits,
		})
	}
	if len(rows) == 0 {
		return fmt.Errorf("empty -compare")
	}
	fmt.Printf("like-for-like comparison at n = %d (%d replicates per spec)\n\n", distinct, reps)
	fmt.Printf("%-40s %10s %10s %12s\n", "spec", "RRMSE", "bias", "memory(bits)")
	for _, r := range rows {
		fmt.Printf("%-40s %9.2f%% %+9.2f%% %12d\n", r.spec, 100*r.rrmse, 100*r.bias, r.bits)
	}
	return nil
}
