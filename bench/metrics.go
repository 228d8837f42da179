package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The names and units
// here are the contract BENCHMARK.json repeats; bench_test.go checks that
// the two agree. better is "higher" or "lower".
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a run with -trace 0 reports, each of which a
// user of sketchd sees and which repeat within their bounds on a noisy
// shared host: set-up time, memory, and accuracy. Throughput and latency
// swing with the host's CPU speed (see README.md) and are reported by
// every run's full record and by traced runs instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"bytes_per_key", "B", "lower"},
	{"rrmse", "ratio", "lower"},
}

// perLayer are the metrics a run with -trace 1 reports: the whole-run
// figures of the untraced phases, the spans of its traced phases, and the
// in-process replay of its inputs through each layer's public function.
var perLayer = append(unbounded, layers...)

// unbounded are the figures a user of sketchd sees that swing too much
// with the host, or with how much work a deadline-bounded run gets done,
// to carry a bound: throughput and latency of the untraced phases,
// recovery, CPU per record, and the peak resident set over the whole run
// (checkpoints included). -diff judges them pair by pair.
var unbounded = []metricDef{
	{"ingest_rps", "rec/s", "higher"},
	{"ack_p50_ms", "ms", "lower"},
	{"ack_p99_ms", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"scrape_ms", "ms", "lower"},
	{"recovery_s", "s", "lower"},
	{"cpu_us_per_rec", "us", "lower"},
	{"rss_run_peak_mb", "MB", "lower"},
}

// layers are the traced and replayed per-layer figures.
var layers = []metricDef{
	{"uhash.ns_per_rec", "ns", "lower"},
	{"sketch.ns_per_rec", "ns", "lower"},
	{"store.cold_ns_per_rec", "ns", "lower"},
	{"store.warm_ns_per_rec", "ns", "lower"},
	{"store.changed_frac", "ratio", "higher"},
	{"server.decode_ns_per_rec", "ns", "lower"},
	{"wal.append_us_per_frame", "us", "lower"},
	{"wal.bytes_per_rec", "B", "lower"},
	{"rules.observe_us_per_frame", "us", "lower"},
	{"rules.tick_ms", "ms", "lower"},
	{"server.ingest_ns_per_rec", "ns", "lower"},
	{"server.residual_ns_per_rec", "ns", "lower"},
	{"server.ndjson_us_per_req", "us", "lower"},
	{"server.estimate_us", "us", "lower"},
	{"server.topk_ms", "ms", "lower"},
	{"store.estimate_ns", "ns", "lower"},
	{"store.estimate_batch_ns_per_key", "ns", "lower"},
	{"store.footprint_ms", "ms", "lower"},
	{"store.topk_ms", "ms", "lower"},
	{"go.alloc_bytes_per_rec", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"checkpoint.ms", "ms", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"checkpoint.stripes", "count", "lower"},
	{"recovery.ms", "ms", "lower"},
	{"recovery.replayed_records", "count", "lower"},
	{"transport.residual_ns_per_rec", "ns", "lower"},
	{"http.residual_us", "us", "lower"},
	{"trace.e2e_ns_per_rec", "ns", "lower"},
	{"trace.write_ns_per_rec", "ns", "lower"},
	{"trace.wait_ns_per_rec", "ns", "lower"},
	{"trace.other_ns_per_rec", "ns", "lower"},
	{"trace.gap_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// unitOf returns the unit of a named metric ("" if unknown).
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// quantile returns the nearest-rank q-quantile of sorted values (NaN when
// empty).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// beyond counts the samples ranked above the nearest-rank q-quantile: a
// percentile is reportable when at least ten samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - max(int(math.Ceil(q*float64(n))), 1)
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs without reordering them.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads this program reports match the ones the benchmark's acceptance
// check computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
