package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// These tests run every workload at toy scale (1,024 keys, one timed
// second) against a real sketchd, so the benchmark cannot drift from the
// contract BENCHMARK.json states.

var sketchdBin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "bench-test-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		root, err := findRoot()
		if err == nil {
			sketchdBin, err = buildSketchd(root, dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

// summaryLine is the last line of a run's standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runToy runs one toy-scale benchmark and returns its summary line and
// full record.
func runToy(t *testing.T, workload string, trace int, extra ...string) (summaryLine, *result) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	args := append([]string{
		"--workload", workload, "--seed", "7", "--seconds", "1", "--keys", "1024",
		"--trace", strconv.Itoa(trace), "--sketchd", sketchdBin,
		"--out", out, "--spans", filepath.Join(dir, "spans.jsonl"),
	}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\nstderr:\n%s\nstdout:\n%s", workload, trace, code, &stderr, &stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	recs, err := readRecords(out)
	if err != nil || len(recs) != 1 {
		t.Fatalf("%s: --out records: %v (%d)", workload, err, len(recs))
	}
	return sum, recs[0]
}

func TestWorkloadsMeetContract(t *testing.T) {
	spec, err := readBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json and the metric tables must agree, in order, on
	// names, units and directions; set-up time has the largest bound.
	var declared [2][]metricDef
	for _, m := range spec.EndToEnd {
		declared[0] = append(declared[0], metricDef{m.Name, m.Unit, m.Better})
		if m.Bound > spec.EndToEnd[0].Bound || spec.EndToEnd[0].Name != "setup_s" {
			t.Errorf("setup_s must come first with the largest bound; %s has %v", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		declared[1] = append(declared[1], metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(declared, [2][]metricDef{endToEnd, perLayer}) {
		t.Errorf("BENCHMARK.json metrics differ from metrics.go:\n%v\n%v", declared, [2][]metricDef{endToEnd, perLayer})
	}
	want := [2]map[string]string{{}, {}}
	for i, defs := range declared {
		for _, d := range defs {
			want[i][d.name] = d.unit
		}
	}
	for name := range workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace=%d", name, trace), func(t *testing.T) {
				sum, rec := runToy(t, name, trace)
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
				}
				if len(sum.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(sum.Metrics), len(want[trace]))
				}
				for n, unit := range want[trace] {
					m, ok := sum.Metrics[n]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: emitted %v (ok=%v), want unit %q", n, m, ok, unit)
					}
				}
				if rec.Inputs.SHA256 == "" || rec.Host.NProc < 1 || len(rec.Host.SketchdFlags) == 0 {
					t.Errorf("record lacks inputs or host: %+v %+v", rec.Inputs, rec.Host)
				}
				if trace == 1 && name != "query-mix" {
					checkTrace(t, rec)
				}
			})
		}
	}
}

// checkTrace asserts that a traced ingest run measured every layer and
// that its spans cover the client's loop. The per-record books balance by
// construction — transport.residual_ns_per_rec is defined as the client's
// ingest time minus the in-process server time, so it absorbs any error
// in a layer figure — and so are not asserted here.
func checkTrace(t *testing.T, rec *result) {
	t.Helper()
	v := func(n string) float64 { return rec.Metrics[n].Value }
	if e2e := v("trace.e2e_ns_per_rec"); e2e <= 0 {
		t.Fatalf("trace.e2e_ns_per_rec = %v", e2e)
	}
	for _, n := range []string{"uhash.ns_per_rec", "sketch.ns_per_rec", "store.warm_ns_per_rec",
		"server.decode_ns_per_rec", "wal.append_us_per_frame", "server.ingest_ns_per_rec"} {
		if v(n) <= 0 {
			t.Errorf("layer cost %s = %v, want > 0", n, v(n))
		}
	}
	if g := v("trace.gap_frac"); g < 0 || g > 0.25 {
		t.Errorf("spans leave %.0f%% of the client's time uncovered", 100*g)
	}
}

func TestTooSmallBodyLimitCountsFailures(t *testing.T) {
	// A full 8,192-record frame (~164 KB) exceeds 64 KiB; the short last
	// frame of each toy pass fits.
	sum, _ := runToy(t, "tcp-ingest", 0, "--max-body", "65536")
	if sum.Failed == 0 || !sum.Correct {
		t.Fatalf("correct=%v attempted=%d failed=%d; want failures reported, state still verified",
			sum.Correct, sum.Attempted, sum.Failed)
	}
	t.Logf("error rate %.3f (%d of %d)", float64(sum.Failed)/float64(sum.Attempted), sum.Failed, sum.Attempted)
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		name       string
		better     string
		bound      float64
		change     []float64
		moreFailed bool
		want       string
	}{
		{"faster", "higher", 0.1, shift(5), false, "gain"},
		{"faster but failing more", "higher", 0.1, shift(5), true, "void gain: more failed"},
		{"same", "higher", 0.1, shift(0), false, "ok"},
		{"slightly slower", "higher", 0.1, shift(-5), false, "ok"},
		{"much slower", "higher", 0.1, shift(-20), false, "REGRESSION"},
		{"much slower and failing more", "higher", 0.1, shift(-20), true, "REGRESSION"},
		{"lower is better", "lower", 0.1, shift(-5), false, "gain"},
		{"noisier than the bound", "higher", 0.01, shift(-1.5), false, "unresolved"},
		{"unbounded and slower", "higher", math.Inf(1), shift(-5), false, "loss"},
		{"unbounded and level", "higher", math.Inf(1), shift(0.5), false, "no change shown"},
	} {
		if got := judge("m", "w", c.better, c.bound, base, c.change, c.moreFailed).status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefuses(t *testing.T) {
	// mk returns n verified runs; side 1's runs start 10 ns before or
	// after side 0's, alternating, unless sameOrder.
	mk := func(n, side int, sha string, sameOrder bool) []*result {
		var out []*result
		for i := 0; i < n; i++ {
			start := int64(i) * 100
			if side == 1 && (sameOrder || i%2 == 0) {
				start += 10
			} else if side == 1 {
				start -= 10
			}
			out = append(out, &result{Seed: uint64(i), Inputs: inputs{SHA256: sha}, Started: start, Correct: true,
				Attempted: 100, Metrics: map[string]metric{}})
		}
		return out
	}
	var spec benchSpec
	if _, err := compare(spec, "w", mk(10, 0, "a", false), mk(10, 1, "a", false)); err != nil {
		t.Errorf("10 alternated pairs on the same inputs: %v", err)
	}
	unverified := mk(10, 1, "a", false)
	unverified[4].Correct = false
	for _, c := range []struct {
		name         string
		base, change []*result
	}{
		{"9 pairs", mk(9, 0, "a", false), mk(9, 1, "a", false)},
		{"different inputs", mk(10, 0, "a", false), mk(10, 1, "b", false)},
		{"base always first", mk(10, 0, "a", false), mk(10, 1, "a", true)},
		{"change failed verification", mk(10, 0, "a", false), unverified},
	} {
		if _, err := compare(spec, "w", c.base, c.change); !errors.Is(err, errRefused) {
			t.Errorf("%s: %v, want a refusal", c.name, err)
		}
	}

	// A change that halves the metric in every pair but fails one more
	// operation gains nothing.
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"m","unit":"s","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	base, change := mk(10, 0, "a", false), mk(10, 1, "a", false)
	for i := range base {
		base[i].Metrics["m"] = metric{Value: 100 + float64(i%3)}
		change[i].Metrics["m"] = metric{Value: 50}
	}
	change[7].Failed = 1
	cmp, err := compare(spec, "w", base, change)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.verdicts[0].status; got != "void gain: more failed" || cmp.failed != [2]int64{0, 1} {
		t.Errorf("verdict %q, failed %v; want a void gain and failures 0 and 1", got, cmp.failed)
	}
}
