// Command distinct estimates the number of distinct lines on stdin (or in
// the named files) using a chosen sketch — a minimal production-shaped
// consumer of the library.
//
// Usage:
//
//	cat access.log | awk '{print $1}' | distinct                 # S-bitmap, defaults
//	distinct -algo hll -mbits 4096 < ids.txt                     # HyperLogLog
//	distinct -algo hll -mbits 4096 ids.txt more-ids.txt          # file arguments
//	distinct -algo exact < ids.txt                               # ground truth
//	distinct -algo all -n 1e7 -eps 0.02 < ids.txt                # compare everything
//	distinct -spec "sbitmap:n=1e6,eps=0.01" < ids.txt            # spec string
//	distinct -spec "hll:mbits=4096;loglog:mbits=4096" < ids.txt  # several specs
//	awk '{print $1, $7}' access.log | distinct -keyed -top 5     # per-key counting
//
// The -n / -eps pair dimensions the S-bitmap (and sizes budget-based
// competitors via -mbits); -spec takes the same semicolon-separated spec
// strings accepted everywhere else in the module (sbitmap.ParseSpec), so a
// config file, a CLI flag, and a library call all share one vocabulary.
// Output reports the estimate and the memory the summary consumed.
//
// With -keyed, each line is "key item" (first field the key, the rest the
// item): one counter per key in a keyed Store — per-user distinct URLs,
// per-source distinct destinations, per-link flows. A single spec
// dimensions every per-key counter; output is the top -top keys by
// estimate plus store totals. -maxkeys bounds memory by evicting
// arbitrary keys once the limit is hit.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	sbitmap "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command, factored for exit-code testing: every failure
// — bad flags, an unparseable -spec, an unreadable input file, a stream
// error mid-read — reports a clear one-line message on stderr and a
// non-zero exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distinct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo    = fs.String("algo", "sbitmap", "sketch: sbitmap|hll|loglog|mr|lc|fm|adaptive|exact|all")
		spec    = fs.String("spec", "", "semicolon-separated sketch specs (overrides -algo), e.g. 'sbitmap:n=1e6,eps=0.01'")
		n       = fs.Float64("n", 1e6, "cardinality upper bound N (dimensioning)")
		eps     = fs.Float64("eps", 0.01, "target RRMSE for the S-bitmap")
		mbits   = fs.Int("mbits", 0, "memory budget in bits for budget-based sketches (default: what the S-bitmap needs)")
		seed    = fs.Uint64("seed", 1, "hash seed")
		keyed   = fs.Bool("keyed", false, "per-key counting: lines are 'key item', one counter per key")
		top     = fs.Int("top", 10, "with -keyed: keys to report, by descending estimate")
		maxKeys = fs.Int("maxkeys", 0, "with -keyed: bound live keys (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1 // the FlagSet already printed the message and usage
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "distinct: %v\n", err)
		return 1
	}

	// Positional arguments name input files, read in order; no arguments
	// means stdin. Open them all up front so a typo'd path fails before
	// any counting starts.
	input := stdin
	if fs.NArg() > 0 {
		files := make([]io.Reader, 0, fs.NArg())
		var closers []io.Closer
		defer func() {
			for _, c := range closers {
				c.Close()
			}
		}()
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return fail(err)
			}
			files = append(files, f)
			closers = append(closers, f)
		}
		input = io.MultiReader(files...)
	}

	if *keyed {
		if err := runKeyed(input, stdout, *spec, *algo, *n, *eps, *mbits, *seed, *top, *maxKeys); err != nil {
			return fail(err)
		}
		return 0
	}

	var counters []namedCounter
	var err error
	if *spec != "" {
		counters, err = buildSpecCounters(*spec)
	} else {
		counters, err = buildCounters(*algo, *n, *eps, *mbits, *seed)
	}
	if err != nil {
		return fail(err)
	}

	// Lines feed every counter through the batch ingestion path: each line
	// is copied out of the scanner's volatile buffer into a batch, and a
	// full batch is offered to each sketch in one AddBatchString call
	// (hashing identically to per-line Add of the raw bytes).
	const lineBatch = 512
	scanner := bufio.NewScanner(input)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	lines := 0
	batch := make([]string, 0, lineBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		for _, c := range counters {
			sbitmap.AddBatchString(c.counter, batch)
		}
		batch = batch[:0]
	}
	for scanner.Scan() {
		batch = append(batch, string(scanner.Bytes()))
		if len(batch) == lineBatch {
			flush()
		}
		lines++
	}
	if err := scanner.Err(); err != nil {
		return fail(fmt.Errorf("reading input: %w", err))
	}
	flush()

	fmt.Fprintf(stdout, "%d lines read\n", lines)
	width := 10
	for _, c := range counters {
		if len(c.name) > width {
			width = len(c.name)
		}
	}
	for _, c := range counters {
		fmt.Fprintf(stdout, "%-*s estimate %12.0f   memory %8d bits\n",
			width, c.name, c.counter.Estimate(), c.counter.SizeBits())
	}
	return 0
}

// runKeyed is the -keyed mode: one counter per key in a Store, lines
// split into key (first field) and item (rest of the line).
func runKeyed(input io.Reader, stdout io.Writer, specStr, algo string, n, eps float64, mbits int, seed uint64, top, maxKeys int) error {
	spec, err := keyedSpec(specStr, algo, n, eps, mbits, seed)
	if err != nil {
		return err
	}
	var opts []sbitmap.StoreOption
	if maxKeys > 0 {
		opts = append(opts, sbitmap.WithMaxKeys(maxKeys))
	}
	store, err := sbitmap.NewStore[string](spec, opts...)
	if err != nil {
		return err
	}
	// The hook runs on every goroutine that applies a batch's stripes.
	var evicted atomic.Int64
	store.OnEvict(func(string, sbitmap.Counter) { evicted.Add(1) })

	// Lines feed the store through the keyed batch path: key and item are
	// copied out of the scanner's volatile buffer, and a full batch routes
	// with one hash pass and one lock per touched stripe.
	const lineBatch = 512
	scanner := bufio.NewScanner(input)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	lines, skipped := 0, 0
	keys := make([]string, 0, lineBatch)
	items := make([]string, 0, lineBatch)
	flush := func() {
		if len(keys) > 0 {
			store.AddBatchString(keys, items)
			keys, items = keys[:0], items[:0]
		}
	}
	for scanner.Scan() {
		lines++
		line := strings.TrimSpace(string(scanner.Bytes()))
		// Split at the FIRST whitespace of either kind, so a TSV line
		// whose item contains spaces still keys correctly.
		cut := strings.IndexAny(line, " \t")
		if cut <= 0 {
			skipped++
			continue
		}
		key, item := line[:cut], strings.TrimSpace(line[cut+1:])
		if item == "" {
			skipped++
			continue
		}
		keys = append(keys, key)
		items = append(items, item)
		if len(keys) == lineBatch {
			flush()
		}
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	flush()

	fmt.Fprintf(stdout, "%d lines read", lines)
	if skipped > 0 {
		fmt.Fprintf(stdout, " (%d without 'key item' shape skipped)", skipped)
	}
	fmt.Fprintf(stdout, "\n%d keys tracked, spec %s, %d bits of sketch, %d bytes resident",
		store.Len(), spec, store.SizeBits(), store.Footprint())
	if n := evicted.Load(); n > 0 {
		fmt.Fprintf(stdout, ", %d keys evicted (-maxkeys %d)", n, maxKeys)
	}
	fmt.Fprintln(stdout)
	ranked := store.TopK(top)
	if len(ranked) > 0 {
		width := 10
		for _, ke := range ranked {
			if len(ke.Key) > width {
				width = len(ke.Key)
			}
		}
		fmt.Fprintf(stdout, "\ntop %d keys by estimated distinct items:\n", len(ranked))
		for _, ke := range ranked {
			fmt.Fprintf(stdout, "%-*s %12.0f\n", width, ke.Key, ke.Estimate)
		}
	}
	return nil
}

// keyedSpec resolves the single per-key spec of -keyed mode from either
// vocabulary (-spec wins; it must name exactly one spec).
func keyedSpec(specStr, algo string, n, eps float64, mbits int, seed uint64) (sbitmap.Spec, error) {
	if specStr != "" {
		if strings.Contains(specStr, ";") {
			return sbitmap.Spec{}, fmt.Errorf("-keyed takes a single spec, got %q", specStr)
		}
		return sbitmap.ParseSpec(specStr)
	}
	return algoSpec(algo, n, eps, mbits, seed)
}

// algoSpec maps the classic flag vocabulary onto a Spec: the S-bitmap is
// dimensioned from (n, eps), every budget-based competitor from the
// budget mbits (0: what the S-bitmap needs), and mr/vb additionally from
// n — the paper's like-for-like accounting.
func algoSpec(algo string, n, eps float64, mbits int, seed uint64) (sbitmap.Spec, error) {
	kind, err := sbitmap.ParseKind(algo)
	if err != nil {
		return sbitmap.Spec{}, fmt.Errorf("unknown algorithm %q", algo)
	}
	spec := sbitmap.Spec{Kind: kind, Seed: seed}
	switch kind {
	case sbitmap.KindSBitmap:
		spec.N, spec.Eps = n, eps
	case sbitmap.KindExact:
		// no dimensioning
	default:
		if mbits == 0 {
			if mbits, err = sbitmap.Memory(n, eps); err != nil {
				return sbitmap.Spec{}, err
			}
		}
		spec.MemoryBits = mbits
		if kind == sbitmap.KindMRBitmap || kind == sbitmap.KindVirtualBitmap {
			spec.N = n
		}
	}
	return spec, nil
}

type namedCounter struct {
	name    string
	counter sbitmap.Counter
}

// buildSpecCounters constructs one counter per semicolon-separated spec.
func buildSpecCounters(specs string) ([]namedCounter, error) {
	var out []namedCounter
	for _, s := range strings.Split(specs, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		sp, err := sbitmap.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		c, err := sp.New()
		if err != nil {
			return nil, err
		}
		// The full spec string distinguishes multiple specs of one kind
		// (e.g. two hll budgets side by side).
		out = append(out, namedCounter{sp.String(), c})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -spec")
	}
	return out, nil
}

// buildCounters builds one counter per algorithm name ("all" for every
// one), each from algoSpec with the shared budget.
func buildCounters(algo string, n, eps float64, budget int, seed uint64) ([]namedCounter, error) {
	mk := func(name string) (namedCounter, error) {
		spec, err := algoSpec(name, n, eps, budget, seed)
		if err != nil {
			return namedCounter{}, err
		}
		c, err := spec.New()
		if err != nil {
			return namedCounter{}, err
		}
		return namedCounter{name, c}, nil
	}
	if algo == "all" {
		var out []namedCounter
		for _, name := range []string{"sbitmap", "hll", "loglog", "mr", "lc", "fm", "adaptive", "exact"} {
			c, err := mk(name)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	}
	c, err := mk(algo)
	if err != nil {
		return nil, err
	}
	return []namedCounter{c}, nil
}
