package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// ndjson-window runs sketchd on a windowed HLL: 1-minute sub-windows, a
// ring of 5, so a 5-minute window query merges five sub-windows.
const (
	ndjsonSpec    = "hll:mbits=512"
	ndjsonWindow  = time.Minute
	ndjsonRing    = 5
	ndjsonSpan    = 5 * time.Minute
	ndjsonSegment = 256 // requests generated per phase, before scaling
	windowChecks  = 2048
)

// ndjsonWindowLoad is the closed-loop NDJSON workload: two HTTP
// connections POST pre-encoded 1,024-record bodies whose event time
// advances one second per request; after every 16th of its requests,
// connection 0 asks for 8 five-minute window estimates on hot keys, and it
// scrapes /v1/stats once a second. sketchd fsyncs the WAL per request.
type ndjsonWindowLoad struct {
	gen    *ndjsonGen
	spec   sbitmap.Spec
	twin   *sbitmap.Store[string]
	plan   []planQuery
	next   int
	reqs   []ndjsonReq
	sent   int // requests 0..sent-1 have been attempted
	phase1 int // index of phase 1's first request, for the replay

	// The exact truth: per sub-window index, each key's fresh (hence
	// distinct) acked items, for the ring's sub-windows ending at wm, the
	// sub-window of the latest acked request.
	fresh map[int64][]int32
	wm    int64
	// The RRMSE is pooled over every scoring point — each phase's end and
	// the tail's — so it rests on tens of thousands of window estimates
	// and repeats from run to run although runs differ in length.
	sq     float64
	scored int
}

// windowedSpec builds the windowed spec exactly as sketchd's -window and
// -ring flags do.
func windowedSpec() (sbitmap.Spec, error) {
	spec, err := sbitmap.ParseSpec(ndjsonSpec)
	if err != nil {
		return spec, err
	}
	spec.Window, spec.Ring = ndjsonWindow, ndjsonRing
	return sbitmap.ParseSpec(spec.String())
}

func (n *ndjsonWindowLoad) sketchdArgs(dir string) []string {
	return []string{
		"-spec", ndjsonSpec, "-window", ndjsonWindow.String(), "-ring", fmt.Sprint(ndjsonRing),
		"-addr", "127.0.0.1:0",
		"-wal-dir", dir + "/wal", "-fsync", "always",
		"-checkpoint", dir + "/ckpt", "-checkpoint-interval", "0",
	}
}

func (n *ndjsonWindowLoad) wantTCP() bool          { return false }
func (n *ndjsonWindowLoad) closedLoopIngest() bool { return true }

func (n *ndjsonWindowLoad) segment(r *runner) int {
	return max(8, int(float64(ndjsonSegment)*r.cfg.scale()))
}

func (n *ndjsonWindowLoad) prepare(r *runner) error {
	spec, err := windowedSpec()
	if err != nil {
		return err
	}
	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return err
	}
	n.spec, n.twin, n.fresh = spec, twin, map[int64][]int32{}
	n.gen = newNDJSONGen(r.cfg.seed, max(r.cfg.keys/2, 64))
	n.plan = windowPlan(n.gen)
	n.reqs = make([]ndjsonReq, n.segment(r))
	fp := newFingerprint("ndjson-window", spec.String(), fmt.Sprint(len(n.gen.names), ndjsonRecords, ndjsonZipfS, ndjsonDupProb))
	for i := range n.reqs {
		n.gen.gen(&n.reqs[i], i)
		fp.add(n.reqs[i].body)
	}
	fp.addPlan(n.plan)
	r.fingerprint = fp.sum()
	return nil
}

func (n *ndjsonWindowLoad) setup(*runner) error { return nil }

// post sends request i's body and books the outcome on l.
func (n *ndjsonWindowLoad) post(l *lane, h *httpConn, req *ndjsonReq) bool {
	l.attempted++
	status, _, st, en, err := h.do(spanHTTPIngest, http.MethodPost, "/v1/add", "application/x-ndjson", req.body)
	if err != nil || status != http.StatusOK {
		l.failed++
		return false
	}
	l.records += int64(len(req.keys))
	l.ackMs = append(l.ackMs, ms(en.Sub(st)))
	return true
}

func (n *ndjsonWindowLoad) phase(r *runner, i int, traced bool) (bool, error) {
	seg := len(n.reqs)
	base := n.sent
	if i == 1 {
		n.phase1 = base
	}
	for j := range n.reqs {
		n.gen.gen(&n.reqs[j], base+j)
	}
	ok := make([]bool, seg)
	c := r.cur()
	var taken atomic.Int64
	var done atomic.Bool
	conns := [2]*httpConn{newHTTPConn(c.httpAddr), newHTTPConn(c.httpAddr)}
	for k, h := range conns {
		h.tr = r.tracerFor(k, traced)
		defer h.close()
	}
	pc := r.begin()
	loop := func(k int) func() {
		return func() {
			l, h := r.lane(k), conns[k]
			for own := 1; ; own++ {
				if !time.Now().Before(pc.deadline) {
					done.Store(true)
					return
				}
				j := int(taken.Add(1) - 1)
				if j >= seg {
					return
				}
				ok[j] = n.post(l, h, &n.reqs[j])
				if k != 0 {
					continue
				}
				if own%probeEvery == 0 {
					for b := 0; b < probeBurst; b++ {
						r.query(l, h, n.plan[n.next%len(n.plan)], spanHTTPEstimateWindow)
						n.next++
					}
				}
				r.scrape(l, h, false)
			}
		}
	}
	r.lane(1) // both lanes exist before the goroutines start
	runLanes(loop(0), loop(1))
	if err := r.end(pc, traced); err != nil {
		return false, err
	}
	sent := min(int(taken.Load()), seg)
	return done.Load(), n.fold(base, n.reqs[:sent], ok[:sent])
}

// fold applies the acked requests among those starting at index base to
// the twin, in index order, and to the exact truth, then scores the
// window estimates.
func (n *ndjsonWindowLoad) fold(base int, reqs []ndjsonReq, ok []bool) error {
	width := ndjsonWindow.Nanoseconds()
	for j := range reqs {
		if !ok[j] {
			continue
		}
		ts := ndjsonTS(base + j)
		n.twin.AddBatchStringAt(ts, reqs[j].keys, reqs[j].items)
		w := ts.UnixNano() / width
		counts := n.fresh[w]
		if counts == nil {
			counts = make([]int32, len(n.gen.names))
			n.fresh[w] = counts
		}
		for x, k := range reqs[j].keyIdx {
			if reqs[j].fresh[x] {
				counts[k]++
			}
		}
		n.wm = max(n.wm, w)
	}
	for w := range n.fresh {
		if w <= n.wm-ndjsonRing {
			delete(n.fresh, w)
		}
	}
	n.sent = base + len(reqs)
	return n.score()
}

// truth is key k's exact distinct count over the ring's sub-windows
// ending at the watermark — what a 5-minute window estimate covers.
func (n *ndjsonWindowLoad) truth(k int) float64 {
	var t int32
	for _, counts := range n.fresh {
		t += counts[k]
	}
	return float64(t)
}

// score adds the windowChecks hottest keys' 5-minute window estimates,
// read from the twin, to the pooled RRMSE: the keys a window query is
// asked about, all in the sketch's estimation range (the cold tail of the
// Zipf law is counted near-exactly and would only dilute the figure). The
// twin stands in for sketchd between phases; verify checks that the two
// agree bit for bit on the last scoring point.
func (n *ndjsonWindowLoad) score() error {
	for i := 0; i < min(windowChecks, len(n.gen.names)); i++ {
		t := n.truth(n.gen.perm[i])
		if t == 0 {
			continue
		}
		est, ok, err := n.twin.EstimateWindow(n.gen.hotKey(i), ndjsonSpan)
		if err != nil {
			return err
		}
		if ok {
			rel := est.Estimate/t - 1
			n.sq += rel * rel
			n.scored++
		}
	}
	return nil
}

// tail sends the fixed post-run tail: the next requests of the stream,
// one at a time on one connection.
func (n *ndjsonWindowLoad) tail(r *runner) error {
	h := newHTTPConn(r.cur().httpAddr)
	defer h.close()
	ok := make([]bool, len(n.reqs))
	for j := range n.reqs {
		n.gen.gen(&n.reqs[j], n.sent+j)
		ok[j] = n.post(r.lane(0), h, &n.reqs[j])
	}
	return n.fold(n.sent, n.reqs, ok)
}

// verify checks every key's full-ring estimate and the windowChecks
// hottest keys' 5-minute window estimates against the twin, and returns
// the pooled RRMSE of the window estimates.
func (n *ndjsonWindowLoad) verify(r *runner) (float64, error) {
	h := newHTTPConn(r.cur().httpAddr)
	defer h.close()
	l := r.lane(0)
	if _, err := r.verifyPlain(l, h, twinView{
		store: n.twin, names: n.gen.names, keys: n.twin.Len(), truth: n.truth,
	}); err != nil {
		return 0, err
	}
	for i := 0; i < min(windowChecks, len(n.gen.names)); i++ {
		key := n.gen.hotKey(i)
		want, wantOK, err := n.twin.EstimateWindow(key, ndjsonSpan)
		if err != nil {
			return 0, err
		}
		l.attempted++
		status, body, _, _, err := h.do(spanHTTPEstimateWindow, http.MethodGet, estimatePath(key)+"&window=5m", "", nil)
		if err != nil {
			l.failed++
			return 0, err
		}
		var got server.EstimateResult
		switch {
		case status == http.StatusNotFound && !wantOK:
			continue
		case status != http.StatusOK:
			l.failed++
			return 0, fmt.Errorf("window estimate of %s: status %d", key, status)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		if !wantOK || math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
			return 0, fmt.Errorf("%w: window estimate of %s: served %v, twin %v (ok=%v)", errMismatch, key, got.Estimate, want.Estimate, wantOK)
		}
	}
	if n.scored == 0 {
		return 0, nil
	}
	return math.Sqrt(n.sq / float64(n.scored)), nil
}

func (n *ndjsonWindowLoad) replay(r *runner) (replayInput, error) {
	in := replayInput{
		spec: n.spec, policy: wal.FsyncAlways, hotKey: n.gen.hotKey(0),
		window: ndjsonSpan, viaNDJSON: true, ndjsonRecs: ndjsonRecords,
	}
	// The requests before phase 1 bring the store to the state that phase
	// met; phase 1's own segment is timed.
	warm := n.phase1 + len(n.reqs)
	var req ndjsonReq
	for i := 0; i < warm+replayNDJSONBodies; i++ {
		n.gen.gen(&req, i)
		if i >= warm {
			in.ndjson = append(in.ndjson, append([]byte(nil), req.body...))
			continue
		}
		keys := append([]string(nil), req.keys...)
		items := append([]string(nil), req.items...)
		b := replayBatch{raw: server.AppendFrameStringAt(nil, ndjsonTS(i), keys, items), keys: keys, strs: items, ts: ndjsonTS(i)}
		if i < n.phase1 {
			in.cold = append(in.cold, b)
		} else {
			in.warm = append(in.warm, b)
		}
	}
	for i := 0; i < replayEstimates; i++ {
		in.estKeys = append(in.estKeys, n.gen.hotKey(i%min(windowChecks, len(n.gen.names))))
	}
	return in, nil
}
