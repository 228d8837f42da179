package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"net/url"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/xrand"
)

// Every input is a pure function of the seed and an index (pass, request,
// query-plan slot), so a run can generate phase after phase between timed
// phases and two commits given the same seed see the same bytes.

const golden = 0x9e3779b97f4a7c15

// subSeed derives an independent generator seed for stream tag and index i.
func subSeed(seed uint64, tag string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(tag); j++ {
		h = (h ^ uint64(tag[j])) * 1099511628211
	}
	return xrand.Mix64(seed*golden ^ h ^ uint64(i)*0xbf58476d1ce4e5b9)
}

// keyNames renders the key population: "user-" and the key's index in
// hex, the prefix the superspreader rule scans.
func keyNames(n int) []string {
	names := make([]string, n)
	for k := range names {
		names[k] = fmt.Sprintf("user-%06x", k)
	}
	return names
}

// tailPass is the pass index of the fixed tail every tcp-trace run ingests
// after its timed phases, so recovery replays the same bytes on every run.
const tailPass = 1 << 20

// tcpPass is one pass of the uint64 trace shared by tcp-ingest and
// query-mix: every key receives d ∈ [2, 10] fresh distinct items, each
// sent round(1.4·d) times, the records shuffled over all keys. Frames are
// wire-ready ([uint32 length][SBF1 frame]) and hold frameLen records each
// (the last may hold fewer).
type tcpPass struct {
	frameLen int
	keys     []string
	items    []uint64
	recs     []uint32 // per record: key index << 4 | which of its d items
	buf      []byte
	offs     []int // frame i is buf[offs[i]:offs[i+1]]
}

func (p *tcpPass) frames() int { return len(p.offs) - 1 }

func (p *tcpPass) frame(i int) []byte { return p.buf[p.offs[i]:p.offs[i+1]] }

// span returns frame i's record range.
func (p *tcpPass) span(i int) (lo, hi int) {
	return i * p.frameLen, min((i+1)*p.frameLen, len(p.keys))
}

// tcpItem is the j-th distinct item key k receives in pass p: distinct
// (p, k, j) give distinct items because Mix64 is a bijection.
func tcpItem(seed uint64, p, k, j int) uint64 {
	return xrand.Mix64(seed*golden ^ (uint64(p)<<40 | uint64(k)<<8 | uint64(j)))
}

// genTCPPass fills dst (reusing its buffers) with pass p over names
// (at most 2^28 keys).
func genTCPPass(dst *tcpPass, seed uint64, names []string, p, frameLen int) {
	r := xrand.New(subSeed(seed, "tcp-pass", p))
	dst.frameLen = frameLen
	recs := dst.recs[:0]
	for k := range names {
		d := 2 + r.Intn(9)
		n := int(float64(d)*1.4 + 0.5)
		for i := 0; i < n; i++ {
			recs = append(recs, uint32(k)<<4|uint32(i%d))
		}
	}
	for i := len(recs) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		recs[i], recs[j] = recs[j], recs[i]
	}
	dst.recs, dst.keys, dst.items = recs, dst.keys[:0], dst.items[:0]
	for _, rec := range recs {
		k := int(rec >> 4)
		dst.keys = append(dst.keys, names[k])
		dst.items = append(dst.items, tcpItem(seed, p, k, int(rec&15)))
	}
	dst.buf, dst.offs = dst.buf[:0], append(dst.offs[:0], 0)
	for lo := 0; lo < len(dst.keys); lo += frameLen {
		hi := min(lo+frameLen, len(dst.keys))
		start := len(dst.buf)
		dst.buf = server.AppendFrame64(append(dst.buf, 0, 0, 0, 0), dst.keys[lo:hi], dst.items[lo:hi])
		binary.LittleEndian.PutUint32(dst.buf[start:], uint32(len(dst.buf)-start-4))
		dst.offs = append(dst.offs, len(dst.buf))
	}
}

// ndjson-window inputs: request i carries 1,024 string records stamped
// ts = ndjsonEpoch + i seconds, so event time is independent of wall
// time. Keys are Zipf(1.1) over the key population; about 1/1.4 of the
// records carry a fresh item, the rest repeat an earlier record of the
// same request.
const (
	ndjsonRecords = 1024
	ndjsonZipfS   = 1.1
	ndjsonDupProb = 1 - 1/1.4
)

// ndjsonEpoch is the event time of request 0 (2023-11-14T22:13:20Z).
var ndjsonEpoch = time.Unix(1_700_000_000, 0)

func ndjsonTS(i int) time.Time { return ndjsonEpoch.Add(time.Duration(i) * time.Second) }

// ndjsonReq is one generated request: the NDJSON body and, for the twin
// and the exact truth, its records.
type ndjsonReq struct {
	body   []byte
	keys   []string
	items  []string
	keyIdx []uint32
	fresh  []bool
}

// ndjsonGen generates requests over a fixed key population; the key of
// Zipf rank r is perm[r], so hot keys scatter over stripes.
type ndjsonGen struct {
	seed  uint64
	names []string
	perm  []int
}

func newNDJSONGen(seed uint64, keys int) *ndjsonGen {
	return &ndjsonGen{seed: seed, names: keyNames(keys), perm: xrand.New(subSeed(seed, "ndjson-perm", 0)).Perm(keys)}
}

// hotKey returns the key of Zipf rank r.
func (g *ndjsonGen) hotKey(r int) string { return g.names[g.perm[r]] }

// gen fills dst (reusing its buffers) with request i.
func (g *ndjsonGen) gen(dst *ndjsonReq, i int) {
	r := xrand.New(subSeed(g.seed, "ndjson-req", i))
	z := xrand.NewZipf(r, ndjsonZipfS, uint64(len(g.names)))
	dst.keys, dst.items, dst.keyIdx, dst.fresh = dst.keys[:0], dst.items[:0], dst.keyIdx[:0], dst.fresh[:0]
	dst.body = dst.body[:0]
	ts := strconv.AppendInt(nil, ndjsonTS(i).UnixNano(), 10)
	for j := 0; j < ndjsonRecords; j++ {
		var k int
		var item string
		fresh := j == 0 || r.Float64() >= ndjsonDupProb
		if fresh {
			k = g.perm[z.Next()]
			var b [16]byte
			hex.Encode(b[:], binary.BigEndian.AppendUint64(nil, xrand.Mix64(g.seed*golden^uint64(i)<<12^uint64(j))))
			item = string(b[:])
		} else {
			prev := r.Intn(j)
			k, item = int(dst.keyIdx[prev]), dst.items[prev]
		}
		dst.keys = append(dst.keys, g.names[k])
		dst.items = append(dst.items, item)
		dst.keyIdx = append(dst.keyIdx, uint32(k))
		dst.fresh = append(dst.fresh, fresh)
		dst.body = append(dst.body, `{"key":"`...)
		dst.body = append(dst.body, g.names[k]...)
		dst.body = append(dst.body, `","item":"`...)
		dst.body = append(dst.body, item...)
		dst.body = append(dst.body, `","ts":`...)
		dst.body = append(dst.body, ts...)
		dst.body = append(dst.body, "}\n"...)
	}
}

// Query plans: pre-rendered request paths, cycled through during a run.
const (
	queryPlanLen = 16384
	multiKeys    = 64
)

// estimatePath renders a single-key estimate query.
func estimatePath(key string) string { return "/v1/estimate?key=" + url.QueryEscape(key) }

// estimateBatchPath renders a multi-key estimate query.
func estimateBatchPath(keys []string) string {
	b := []byte("/v1/estimate?")
	for i, k := range keys {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, "key="...)
		b = append(b, url.QueryEscape(k)...)
	}
	return string(b)
}

// planQuery is one query-plan entry.
type planQuery struct {
	path  string
	batch bool
}

// mixPlan is query-mix's plan: 90% single-key estimates, 10% 64-key
// multi-estimates, keys uniform over the population.
func mixPlan(seed uint64, names []string) []planQuery {
	r := xrand.New(subSeed(seed, "query-mix-plan", 0))
	plan := make([]planQuery, queryPlanLen)
	keys := make([]string, multiKeys)
	for i := range plan {
		if r.Intn(10) == 0 {
			for j := range keys {
				keys[j] = names[r.Intn(len(names))]
			}
			plan[i] = planQuery{path: estimateBatchPath(keys), batch: true}
		} else {
			plan[i] = planQuery{path: estimatePath(names[r.Intn(len(names))])}
		}
	}
	return plan
}

// probePlan is the light query stream tcp-ingest interleaves with its
// frames: single-key estimates, keys uniform over the population.
func probePlan(seed uint64, names []string) []planQuery {
	r := xrand.New(subSeed(seed, "probe-plan", 0))
	plan := make([]planQuery, queryPlanLen)
	for i := range plan {
		plan[i] = planQuery{path: estimatePath(names[r.Intn(len(names))])}
	}
	return plan
}

// windowPlan is ndjson-window's query stream: 5-minute window estimates
// on the 64 hottest keys.
func windowPlan(g *ndjsonGen) []planQuery {
	r := xrand.New(subSeed(g.seed, "window-plan", 0))
	plan := make([]planQuery, queryPlanLen)
	for i := range plan {
		plan[i] = planQuery{path: estimatePath(g.hotKey(r.Intn(min(64, len(g.names))))) + "&window=5m"}
	}
	return plan
}

// fingerprint accumulates the SHA-256 of a workload's generated inputs.
type fingerprint struct{ h hash.Hash }

func newFingerprint(parts ...string) *fingerprint {
	f := &fingerprint{h: sha256.New()}
	for _, p := range parts {
		f.add([]byte(p))
	}
	return f
}

// add hashes b with its length, so concatenations cannot collide.
func (f *fingerprint) add(b []byte) {
	f.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
	f.h.Write(b)
}

func (f *fingerprint) addPlan(plan []planQuery) {
	for _, q := range plan {
		f.add([]byte(q.path))
	}
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
