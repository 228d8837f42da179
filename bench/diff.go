package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// minPairs is the fewest alternated (parent, change) pairs -diff accepts
// for a workload.
const minPairs = 10

// gainShare is the share of pairs the change must win to claim a gain.
const gainShare = 0.9

// benchSpec is the metric part of BENCHMARK.json: names, units,
// directions, and the end-to-end metrics' regression bounds.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchSpec() (benchSpec, error) {
	var spec benchSpec
	root, err := findRoot()
	if err != nil {
		return spec, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(raw, &spec)
}

// readRecords reads a file of --out records (one JSON object per line).
func readRecords(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, resultSchema)
		}
		out = append(out, &res)
	}
	return out, sc.Err()
}

// verdict is the outcome for one (metric, workload) pair.
type verdict struct {
	metric, workload string
	base, change     float64 // medians
	q1, q3           float64 // parent quartiles
	wins, pairs      int
	worse            float64 // relative change of the median, positive = worse
	status           string  // gain, void gain, ok, unresolved, REGRESSION; unbounded: gain, void gain, loss, no change shown
}

// errRefused marks inputs -diff will not compare.
var errRefused = errors.New("refusing to compare")

// comparison is the outcome for one workload: a verdict per metric, and
// each side's failed and attempted operations over the compared runs.
type comparison struct {
	verdicts          []verdict
	failed, attempted [2]int64 // base, change
}

// compare applies the rule of the choosing-metrics guide to base and
// change runs of one workload, pair by pair: pairs are the i-th runs of
// each side, must alternate which side ran first, must share seed and
// input fingerprint, on the same host, and must both have passed
// verification. A gain does not count when the change failed a larger
// share of its operations than the parent.
func compare(spec benchSpec, workload string, base, change []*result) (comparison, error) {
	var cmp comparison
	n := min(len(base), len(change))
	if n < minPairs {
		return cmp, fmt.Errorf("%w: %s has %d pairs, need %d", errRefused, workload, n, minPairs)
	}
	ref := base[0].Host
	for i := 0; i < n; i++ {
		b, c := base[i], change[i]
		if i > 0 && (b.Started < c.Started) == (base[i-1].Started < change[i-1].Started) {
			return cmp, fmt.Errorf("%w: %s pairs %d and %d ran their sides in the same order; alternate which side runs first",
				errRefused, workload, i-1, i)
		}
		if b.Seed != c.Seed || b.Inputs.SHA256 != c.Inputs.SHA256 {
			return cmp, fmt.Errorf("%w: %s pair %d saw different inputs (seed %d vs %d, sha256 %.12s vs %.12s)",
				errRefused, workload, i, b.Seed, c.Seed, b.Inputs.SHA256, c.Inputs.SHA256)
		}
		for side, r := range []*result{b, c} {
			if !r.Correct {
				return cmp, fmt.Errorf("%w: %s pair %d: the %s run failed verification", errRefused, workload, i, sideName[side])
			}
			h := r.Host
			h.Commit = ref.Commit // commits differ by design
			if !reflect.DeepEqual(h, ref) {
				return cmp, fmt.Errorf("%w: %s pair %d ran on another host or sketchd configuration (%+v vs %+v)",
					errRefused, workload, i, r.Host, ref)
			}
			cmp.failed[side] += r.Failed
			cmp.attempted[side] += r.Attempted
		}
	}
	moreFailed := cmp.failed[1]*cmp.attempted[0] > cmp.failed[0]*cmp.attempted[1]
	values := func(name string) (bv, cv []float64) {
		for i := 0; i < n; i++ {
			bv = append(bv, base[i].Metrics[name].Value)
			cv = append(cv, change[i].Metrics[name].Value)
		}
		return bv, cv
	}
	for _, m := range spec.EndToEnd {
		bv, cv := values(m.Name)
		cmp.verdicts = append(cmp.verdicts, judge(m.Name, workload, m.Better, m.Bound, bv, cv, moreFailed))
	}
	for _, m := range unbounded {
		bv, cv := values(m.name)
		cmp.verdicts = append(cmp.verdicts, judge(m.name, workload, m.better, math.Inf(1), bv, cv, moreFailed))
	}
	return cmp, nil
}

var sideName = [2]string{"base", "change"}

// judge decides one metric. A gain needs the change to win at least nine
// pairs in ten and the medians to differ by more than the parent's
// interquartile range; it is void when the change failed more of its
// operations (moreFailed). Otherwise a median worse by more than the bound
// is a regression, and a parent spread wider than the bound leaves the
// metric unresolved unless every change run beats every parent run. A
// metric without a bound (+Inf) is instead a loss when the parent wins by
// the gain rule, and shows no change otherwise.
func judge(name, workload, better string, bound float64, bv, cv []float64, moreFailed bool) verdict {
	lower := better == "lower"
	beats := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	v := verdict{metric: name, workload: workload, base: median(bv), change: median(cv), pairs: len(bv)}
	v.q1, v.q3 = quartiles(bv)
	losses := 0
	for i := range bv {
		if beats(cv[i], bv[i]) {
			v.wins++
		} else if beats(bv[i], cv[i]) {
			losses++
		}
	}
	v.worse = (v.change - v.base) / math.Abs(v.base)
	if !lower {
		v.worse = -v.worse
	}
	spread := (v.q3 - v.q1) / math.Abs(v.base)
	sb, sc := sortedCopy(bv), sortedCopy(cv)
	allBetter := beats(sc[0], sb[len(sb)-1])
	if lower {
		allBetter = beats(sc[len(sc)-1], sb[0])
	}
	clear := math.Abs(v.change-v.base) > v.q3-v.q1
	gain := float64(v.wins) >= gainShare*float64(v.pairs) && beats(v.change, v.base) && clear
	switch {
	case gain && moreFailed:
		v.status = "void gain: more failed"
	case gain:
		v.status = "gain"
	case math.IsInf(bound, 1) && float64(losses) >= gainShare*float64(v.pairs) && beats(v.base, v.change) && clear:
		v.status = "loss"
	case math.IsInf(bound, 1):
		v.status = "no change shown"
	case spread > bound && !allBetter:
		v.status = "unresolved"
	case v.worse > bound:
		v.status = "REGRESSION"
	default:
		v.status = "ok"
	}
	return v
}

// runDiff implements bench --diff base.jsonl change.jsonl. Exit status:
// 0 no regression, 1 a regression, 2 refused or unreadable inputs.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: --diff takes two files: base.jsonl change.jsonl")
		return 2
	}
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	sides := make([]map[string][]*result, 2)
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sides[i] = map[string][]*result{}
		for _, r := range recs {
			if !r.Trace { // a traced run's figures mix in the tracing and the replay
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
	}
	var names []string
	for w := range sides[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	regressed := false
	for _, w := range names {
		cmp, err := compare(spec, w, sides[0][w], sides[1][w])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "\n%s (%d pairs; failed operations: base %d of %d, change %d of %d)\n", w, cmp.verdicts[0].pairs,
			cmp.failed[0], cmp.attempted[0], cmp.failed[1], cmp.attempted[1])
		fmt.Fprintf(stdout, "  %-16s %12s %12s %22s %8s %6s  %s\n", "metric", "base", "change", "base q1..q3", "worse", "wins", "verdict")
		for _, v := range cmp.verdicts {
			fmt.Fprintf(stdout, "  %-16s %12.5g %12.5g %10.5g..%-10.5g %+7.1f%% %3d/%-2d  %s\n",
				v.metric, v.base, v.change, v.q1, v.q3, 100*v.worse, v.wins, v.pairs, v.status)
			regressed = regressed || v.status == "REGRESSION"
		}
	}
	if regressed {
		return 1
	}
	return 0
}
