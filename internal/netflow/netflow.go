// Package netflow synthesizes the network traffic workloads of the paper's
// Section 7 experimental evaluation.
//
// The original evaluation used two data sources we cannot ship:
//
//  1. The MIT LCS "Slammer" traces (www.rbeverly.net/research/slammer): two
//     peering-exchange links observed for 9 hours on 2003-01-25 during the
//     Slammer worm outbreak, with per-minute distinct flow counts mostly
//     stable around 2^15–2^17 but occasionally bursting by an order of
//     magnitude (heavy worm scanners).
//  2. A Tier-1 US provider snapshot of five-minute flow counts on 600
//     backbone MPLS links, spanning several orders of magnitude; the paper
//     reports its quantiles (0.1%, 25%, 50%, 75%, 99%) as
//     (18, 196, 2817, 19401, 361485). For this dataset even the original
//     authors "use simulated data for each link" since only counts, not
//     traces, were available.
//
// Slammer reproduces (1): a per-minute flow-count time series with a
// log-normal base level, slow diurnal drift, AR(1) roughness and sparse
// multiplicative bursts, plus per-minute flow-key streams with
// packet-level duplication. BackboneSnapshot reproduces (2): per-link
// counts drawn from a piecewise log-linear quantile function through the
// published quantile points. The estimators only ever see (distinct-count,
// key-stream) pairs, so matching scale, burstiness and tail shape is what
// matters, and the synthetic sources substitute for the real ones.
package netflow

import (
	"fmt"
	"math"

	"repro/internal/stream"
	"repro/internal/xrand"
)

// Trace is a per-interval distinct-flow-count time series for one link.
type Trace struct {
	Name   string
	Counts []int // Counts[i] = true distinct flows in interval i
	seed   uint64
}

// SlammerMinutes is the length of the synthesized Slammer-like traces:
// 9 hours of per-minute intervals, as in Figure 5.
const SlammerMinutes = 9 * 60

// Slammer returns the synthetic counterpart of the paper's Slammer trace
// for link 0 or link 1. Link 1 runs around 2^15–2^16 flows/minute and
// link 0 around 2^16–2^17, matching Figure 5's y-ranges; both have sparse
// bursts up to roughly 8× base (the "order of difference" the paper
// attributes to a few heavy worm scanners).
func Slammer(link int, seed uint64) Trace {
	if link != 0 && link != 1 {
		panic(fmt.Sprintf("netflow: slammer link %d, want 0 or 1", link))
	}
	r := xrand.New(seed ^ (0x51a33e5<<uint(link) + uint64(link)))
	baseLog2 := 15.3 // link 1
	if link == 0 {
		baseLog2 = 16.2
	}
	counts := make([]int, SlammerMinutes)
	ar := 0.0 // AR(1) roughness in log2 units
	for t := range counts {
		// Slow drift over the 9 hours (fraction of a diurnal cycle).
		drift := 0.25 * math.Sin(2*math.Pi*(float64(t)/SlammerMinutes*0.35+0.2))
		ar = 0.8*ar + 0.08*r.NormFloat64()
		log2 := baseLog2 + drift + ar
		// Sparse bursts: ~2.5% of minutes jump by 1.5–3 log2 units.
		if r.Float64() < 0.025 {
			log2 += 1.5 + 1.5*r.Float64()
		}
		counts[t] = int(math.Exp2(log2))
		if counts[t] < 1 {
			counts[t] = 1
		}
	}
	return Trace{Name: fmt.Sprintf("slammer-link%d", link), Counts: counts, seed: seed}
}

// IntervalStream returns the flow-key stream of interval i: the interval's
// distinct flows plus packet-level duplication (Zipf packet counts, ~3
// packets per flow on average), fully interleaved. Distinct counting
// algorithms must see duplication to be exercised honestly, even though a
// correct sketch's state is invariant to it.
func (tr Trace) IntervalStream(i int) stream.Stream {
	if i < 0 || i >= len(tr.Counts) {
		panic(fmt.Sprintf("netflow: interval %d outside [0,%d)", i, len(tr.Counts)))
	}
	n := tr.Counts[i]
	length := n * 3
	return stream.NewInterleaved(n, length, stream.DupZipf, tr.seed+uint64(i)*1_000_003)
}

// paperQuantiles are the backbone snapshot quantiles reported in Section
// 7.2 (probability, flow count).
var paperQuantiles = [][2]float64{
	{0.001, 18},
	{0.25, 196},
	{0.50, 2817},
	{0.75, 19401},
	{0.99, 361485},
}

// BackboneQuantile evaluates the piecewise log-linear quantile function
// through the paper's published points. Probabilities outside the anchored
// range extrapolate the terminal segments, clamped to [10, 1.4e6] — the
// paper excludes links with fewer than 10 flows and dimensions for
// N = 1.5×10^6.
func BackboneQuantile(p float64) float64 {
	if p <= 0 {
		p = 1e-6
	}
	if p >= 1 {
		p = 1 - 1e-6
	}
	q := paperQuantiles
	// Locate the surrounding segment (extrapolating at the ends).
	seg := 0
	for seg < len(q)-2 && p > q[seg+1][0] {
		seg++
	}
	p0, v0 := q[seg][0], math.Log2(q[seg][1])
	p1, v1 := q[seg+1][0], math.Log2(q[seg+1][1])
	v := v0 + (v1-v0)*(p-p0)/(p1-p0)
	count := math.Exp2(v)
	if count < 10 {
		count = 10
	}
	if count > 1.4e6 {
		count = 1.4e6
	}
	return count
}

// BackboneSnapshot draws per-link five-minute flow counts for nLinks
// backbone links from the quantile function, using stratified uniform
// probabilities so one draw already matches the target distribution
// closely (the paper's Figure 7 histogram).
func BackboneSnapshot(nLinks int, seed uint64) []int {
	if nLinks < 1 {
		panic(fmt.Sprintf("netflow: nLinks = %d", nLinks))
	}
	r := xrand.New(seed ^ 0xbac6b0e5)
	counts := make([]int, nLinks)
	for i := range counts {
		// Stratified: p uniform within the i-th of nLinks equal slices.
		p := (float64(i) + r.Float64()) / float64(nLinks)
		counts[i] = int(BackboneQuantile(p))
	}
	// Shuffle so link index carries no scale information.
	r.Shuffle(nLinks, func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	return counts
}

// LinkStream returns the flow-key stream for one backbone link with the
// given true flow count (packet-duplicated, interleaved).
func LinkStream(count int, seed uint64) stream.Stream {
	if count < 1 {
		panic(fmt.Sprintf("netflow: link flow count %d", count))
	}
	return stream.NewInterleaved(count, count*3, stream.DupZipf, seed)
}

// SpreadRecords returns the backbone snapshot as one keyed record stream:
// each of the counts' links becomes a key whose exact spread (distinct
// flow count) is its snapshot value, with packet-level duplication (~3
// records per flow, as in LinkStream) and records interleaved across
// links — the shape a keyed counter store ingests when one monitor tracks
// every link of the provider at once. Ground truth per link is
// Spread(i) == counts[i].
func SpreadRecords(counts []int, seed uint64) *stream.KeyedSpread {
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("netflow: negative flow count %d for link %d", c, i))
		}
	}
	return stream.NewKeyedSpread(counts, 3, seed^0x5b4ead)
}

// FlowKey encodes a synthetic 5-tuple-like flow identity as a single
// uint64 (src/dst/sport/dport/proto folded through Mix64); exposed for the
// examples that want to show realistic key construction.
func FlowKey(srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) uint64 {
	k := uint64(srcIP)<<32 | uint64(dstIP)
	k = xrand.Mix64(k)
	k ^= uint64(srcPort)<<24 | uint64(dstPort)<<8 | uint64(proto)
	return xrand.Mix64(k)
}
