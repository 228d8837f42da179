// Command bench is the repeatable end-to-end benchmark of sketchd, the
// repository's counting service. It builds ./cmd/sketchd, runs one
// workload against a fresh sketchd child process on loopback, checks that
// the served estimates are bit-identical to an in-process twin Store fed
// the same records, and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":…,"failed":…,"metrics":{"ingest_rps":{"value":…,"unit":"rec/s"},…}}
//
// Usage (from the root of a checkout; bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload tcp-ingest --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload query-mix --seed 2 --trace 1 --out runs.jsonl
//	bash bench/run.sh --diff base.jsonl change.jsonl
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reruns the workload with client-side spans around every request and
// replays its inputs in-process through each layer, reporting the
// per-layer metrics. --out appends the full record (host, input
// fingerprint, every metric, sample counts) as one JSON line; --diff
// compares two such files. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// fullKeys is the key population of the uint64 workloads at full scale;
// --keys scales every workload's size by keys/fullKeys.
const fullKeys = 1 << 17

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	spans    string
	keys     int
	maxBody  int64
	sketchd  string
}

func (c config) scale() float64 { return float64(c.keys) / fullKeys }

// workloads are the benchmark's traffic mixes; BENCHMARK.json lists the
// same names with the reasons they were chosen.
var workloads = map[string]func() workload{
	"tcp-ingest":    func() workload { return &tcpIngest{} },
	"query-mix":     func() workload { return &queryMix{} },
	"ndjson-window": func() workload { return &ndjsonWindowLoad{} },
}

// errMismatch marks a verification failure: sketchd's answers differ from
// the twin store's.
var errMismatch = errors.New("served state differs from the twin store")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: tcp-ingest, query-mix or ndjson-window")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "timed seconds per run")
	trace := fs.Int("trace", 0, "1: traced rerun plus in-process layer replay, reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "append the full result record as one JSON line to this file")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default .bench_out/spans-<workload>.jsonl)")
	fs.IntVar(&cfg.keys, "keys", fullKeys, "key population; scales every workload (tests use ~1024)")
	fs.Int64Var(&cfg.maxBody, "max-body", 0, "pass -max-body to sketchd (0: its default)")
	fs.StringVar(&cfg.sketchd, "sketchd", "", "prebuilt sketchd binary (default: build ./cmd/sketchd)")
	diff := fs.Bool("diff", false, "compare two --out files: bench --diff base.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		return runDiff(fs.Args(), stdout, stderr)
	}
	mk, ok := workloads[cfg.workload]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 || cfg.keys < 64 {
		fmt.Fprintf(stderr, "bench: want --workload tcp-ingest|query-mix|ndjson-window, --trace 0|1, --seconds > 0, --keys >= 64\n")
		return 2
	}
	cfg.trace = *trace == 1
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(root, ".bench_out", "spans-"+cfg.workload+".jsonl")
	}
	bin := cfg.sketchd
	if bin == "" {
		dir := filepath.Join(root, ".bench_build")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if bin, err = buildSketchd(root, dir); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	r := &runner{cfg: cfg, w: mk(), root: root, bin: bin,
		dir: filepath.Join(root, ".bench_out", fmt.Sprintf("run-%d", os.Getpid()))}
	defer os.RemoveAll(r.dir)
	defer r.stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sig:
			r.stop()
			os.RemoveAll(r.dir)
			os.Exit(130)
		case <-finished:
		}
	}()

	runErr := r.run()
	if runErr != nil && !errors.Is(runErr, errMismatch) {
		fmt.Fprintln(stderr, "bench:", runErr)
		return 1
	}
	res := r.result(runErr == nil)
	printReport(stdout, res)
	if runErr != nil {
		fmt.Fprintln(stderr, "bench:", runErr)
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.summary(cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if runErr != nil {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the checkout holding
// cmd/sketchd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sketchd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/sketchd above the working directory; run from a checkout")
		}
		dir = parent
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host identifies where and on what a result was measured; -diff refuses
// to compare results from different hosts.
type host struct {
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	CPUModel     string   `json:"cpu_model"`
	SketchdFlags []string `json:"sketchd_flags"`
}

// inputs identifies what a result was measured on: SHA256 fingerprints
// the workload's generator parameters, query plan and first phases'
// bytes (every later phase is a further draw of the same seeded stream).
type inputs struct {
	SHA256 string `json:"sha256"`
	Keys   int    `json:"keys"`
	Phases int    `json:"phases"`
}

// result is the full record of one run, as --out writes it.
type result struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Started   int64             `json:"started_unix_nano"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	// Series holds the values behind the median and mean metrics: per
	// phase, and per set-up.
	Series map[string][]float64 `json:"series,omitempty"`
	Host   host                 `json:"host"`
	Inputs inputs               `json:"inputs"`
	Notes  []string             `json:"notes,omitempty"`
}

const resultSchema = "sketchd-bench/v1"

func (r *runner) result(correct bool) *result {
	att, failed := r.outcome()
	res := &result{
		Schema: resultSchema, Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds,
		Trace: r.cfg.trace, Started: r.base.UnixNano(), Correct: correct, Attempted: max(att, 1), Failed: failed,
		Metrics: map[string]metric{}, Samples: r.samples,
		Series: map[string][]float64{
			"ingest_rps": r.phaseRPS, "query_qps": r.phaseQPS, "cpu_us_per_rec": r.phaseCPU, "setup_s": r.setupS,
			"rss_peak_mb": r.phaseRSS,
		},
		Host:   hostInfo(r.root, r.args, r.dir),
		Inputs: inputs{SHA256: r.fingerprint, Keys: r.cfg.keys, Phases: r.phases},
		Notes:  r.notes,
	}
	for name, v := range r.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // undefined, e.g. a latency percentile when every request failed
		}
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return res
}

// summary is the last line of standard output: the outcome and the
// mode's metrics only.
func (res *result) summary(trace bool) any {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	m := map[string]metric{}
	for _, d := range defs {
		m[d.name] = metric{Value: res.Metrics[d.name].Value, Unit: d.unit}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, m}
}

func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  %gs timed  trace=%v  correct=%v  attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	fmt.Fprintf(w, "inputs sha256 %s (%d keys, %d phases)\n", res.Inputs.SHA256, res.Inputs.Keys, res.Inputs.Phases)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, res.Samples[k]))
	}
	fmt.Fprintf(w, "samples: %s\n", strings.Join(parts, " "))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func appendRecord(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo records the machine, toolchain, commit and the exact sketchd
// flags (the per-run data directory written as $DATA).
func hostInfo(root string, args []string, dataDir string) host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", CPUModel: "unknown",
	}
	for _, a := range args {
		h.SketchdFlags = append(h.SketchdFlags, strings.ReplaceAll(a, dataDir, "$DATA"))
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
