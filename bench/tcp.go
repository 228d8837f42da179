package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"slices"
	"time"

	sbitmap "repro"
	"repro/internal/rules"
	"repro/internal/wal"
)

// tcpSpec is the per-key sketch of the uint64 workloads: the paper's
// S-bitmap dimensioned for N = 10⁴ at ε = 0.1, as the per-link monitor
// of its Section 7 would deploy it.
const tcpSpec = "sbitmap:n=1e4,eps=0.1"

// Frame sizes: tcp-ingest ships 8,192-record frames with one in flight;
// query-mix's open-loop writer ships 1,024-record frames at writerRate.
const (
	tcpFrameLen    = 8192
	writerFrameLen = 1024
	writerRate     = 250_000 // records per second
	probeEvery     = 16      // tcp-ingest: estimates after every 16th frame
	probeBurst     = 8
	tailRecords    = 1 << 18 // fixed post-run tail, before scaling
)

// twinEvery thins the uint64 workloads' twin store to every 8th key:
// feeding all 131,072 keys would cost the run more untimed wall time than
// its timed phases, and a key's served state depends only on its own
// records, so the sampled keys are checked as strictly as all would be.
const twinEvery = 8

// tcpTrace is the state shared by the two workloads fed from the uint64
// trace: the twin store of the sampled keys and every key's exact truth.
type tcpTrace struct {
	seed  uint64
	names []string
	spec  sbitmap.Spec
	twin  *sbitmap.Store[string]
	truth []float64 // distinct items each key has been acked so far
	mask  []uint16  // per key: which of this pass's d items were acked
	acked []bool    // per frame of the current pass
	pass  tcpPass
	tk    []string // twin batch scratch
	ti    []uint64
}

func (t *tcpTrace) init(seed uint64, keys int) error {
	spec, err := sbitmap.ParseSpec(tcpSpec)
	if err != nil {
		return err
	}
	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return err
	}
	t.seed, t.names, t.spec, t.twin = seed, keyNames(keys), spec, twin
	t.truth, t.mask = make([]float64, keys), make([]uint16, keys)
	return nil
}

// fold applies p's acked frames to the truth and, for the sampled keys,
// to the twin (frame by frame, as the server applied them).
func (t *tcpTrace) fold(p *tcpPass, acked []bool) {
	for f, ok := range acked {
		if !ok {
			continue
		}
		lo, hi := p.span(f)
		t.tk, t.ti = t.tk[:0], t.ti[:0]
		for i := lo; i < hi; i++ {
			k := p.recs[i] >> 4
			t.mask[k] |= 1 << (p.recs[i] & 15)
			if k%twinEvery == 0 {
				t.tk = append(t.tk, p.keys[i])
				t.ti = append(t.ti, p.items[i])
			}
		}
		t.twin.AddBatch64(t.tk, t.ti)
	}
	for k, m := range t.mask {
		if m != 0 {
			t.truth[k] += float64(bits.OnesCount16(m))
			t.mask[k] = 0
		}
	}
}

func (t *tcpTrace) resetAcked(n int) []bool {
	t.acked = append(t.acked[:0], make([]bool, n)...)
	return t.acked
}

// sendTail ships the first frames of the fixed tail pass synchronously.
func (t *tcpTrace) sendTail(r *runner, frameLen int) error {
	w := &wireConn{addr: r.cur().tcpAddr}
	defer w.close()
	genTCPPass(&t.pass, t.seed, t.names, tailPass, frameLen)
	n := min(t.pass.frames(), max(1, int(float64(tailRecords)*r.cfg.scale()/float64(frameLen))))
	acked := t.resetAcked(t.pass.frames())
	l := r.lane(0)
	for f := 0; f < n; f++ {
		l.attempted++
		if _, _, err := w.send(t.pass.frame(f)); err != nil {
			l.failed++
			continue
		}
		acked[f] = true
	}
	t.fold(&t.pass, acked)
	return nil
}

func (t *tcpTrace) verify(r *runner) (float64, error) {
	h := newHTTPConn(r.cur().httpAddr)
	defer h.close()
	seen := 0
	for _, v := range t.truth {
		if v > 0 {
			seen++
		}
	}
	return r.verifyPlain(r.lane(0), h, twinView{
		store: t.twin, names: t.names, keys: seen,
		holds: func(k int) bool { return k%twinEvery == 0 },
		truth: func(k int) float64 { return t.truth[k] },
	})
}

// passFrames is one pass of the trace cut into frames of frameLen.
type passFrames struct{ pass, frameLen int }

// replayInput rebuilds the inputs of the run's traced phase 1: the cold
// passes bring a fresh store to the state that phase met, the warm pass
// is the phase itself.
func (t *tcpTrace) replayInput(cold []passFrames, warm passFrames) replayInput {
	in := replayInput{spec: t.spec, policy: wal.FsyncInterval, hotKey: t.names[0], ndjsonRecs: 1024}
	for _, pf := range append(cold, warm) {
		var pass tcpPass
		genTCPPass(&pass, t.seed, t.names, pf.pass, pf.frameLen)
		for f := 0; f < pass.frames(); f++ {
			lo, hi := pass.span(f)
			b := replayBatch{raw: pass.frame(f)[4:], keys: pass.keys[lo:hi], items: pass.items[lo:hi]}
			if pf == warm {
				in.warm = append(in.warm, b)
			} else {
				in.cold = append(in.cold, b)
			}
		}
		if pf != warm {
			continue
		}
		// NDJSON bodies carrying the warm pass's records, items in hex.
		for lo := 0; lo < len(pass.keys) && len(in.ndjson) < replayNDJSONBodies; lo += in.ndjsonRecs {
			hi := min(lo+in.ndjsonRecs, len(pass.keys))
			var body []byte
			for i := lo; i < hi; i++ {
				body = fmt.Appendf(body, "{\"key\":%q,\"item\":\"%016x\"}\n", pass.keys[i], pass.items[i])
			}
			in.ndjson = append(in.ndjson, body)
		}
	}
	for _, q := range probePlan(t.seed, t.names)[:replayEstimates] {
		in.estKeys = append(in.estKeys, q.path[len("/v1/estimate?key="):])
	}
	return in
}

// checkpointPasses are the passes tcp-ingest opens with a checkpoint,
// inside the timed phase. They come after the first memPhases passes: a
// checkpoint steps sketchd's resident set up by a third or more, by how
// much depends on when the Go collector last ran, and rss_peak_mb is
// meant to repeat. rss_run_peak_mb shows the checkpoints' memory.
var checkpointPasses = []int{10, 16}

// tcpIngest is the closed-loop wire ingest workload: one connection, one
// 8,192-record frame in flight, a light estimate probe every 16 frames,
// /v1/stats once a second, and checkpoints opening passes 10 and 16.
type tcpIngest struct {
	tcpTrace
	probes []planQuery
	next   int // next probe
	sent   int // frames acked so far, over all passes
}

func (t *tcpIngest) sketchdArgs(dir string) []string {
	return []string{
		"-spec", tcpSpec, "-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0",
		"-wal-dir", dir + "/wal", "-fsync", "interval",
		"-checkpoint", dir + "/ckpt", "-checkpoint-interval", "0",
		"-rule-interval", "1s",
	}
}

func (t *tcpIngest) wantTCP() bool          { return true }
func (t *tcpIngest) closedLoopIngest() bool { return true }

func (t *tcpIngest) prepare(r *runner) error {
	if err := t.init(r.cfg.seed, r.cfg.keys); err != nil {
		return err
	}
	t.probes = probePlan(t.seed, t.names)
	fp := newFingerprint("tcp-ingest", tcpSpec, fmt.Sprint(r.cfg.keys, tcpFrameLen, probeEvery, probeBurst))
	for p := 0; p < 2; p++ {
		genTCPPass(&t.pass, t.seed, t.names, p, tcpFrameLen)
		fp.add(t.pass.buf)
	}
	fp.addPlan(t.probes)
	r.fingerprint = fp.sum()
	return nil
}

// tcpRules are the standing queries tcp-ingest installs: a threshold
// watch on one key and a superspreader scan over every key.
func tcpRules(hotKey string) []rules.Spec {
	return []rules.Spec{
		{ID: "hot", Type: rules.TypeThreshold, Key: hotKey, Threshold: 100},
		{ID: "spread", Type: rules.TypePrefix, Prefix: "user-", Threshold: 500},
	}
}

func (t *tcpIngest) setup(r *runner) error {
	h := newHTTPConn(r.cur().httpAddr)
	defer h.close()
	for _, spec := range tcpRules(t.names[0]) {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		status, resp, _, _, err := h.do(spanNone, http.MethodPut, "/v1/rules", "application/json", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("PUT /v1/rules: %d %s", status, resp)
		}
	}
	return nil
}

func (t *tcpIngest) phase(r *runner, i int, traced bool) (bool, error) {
	genTCPPass(&t.pass, t.seed, t.names, i, tcpFrameLen)
	acked := t.resetAcked(t.pass.frames())
	c := r.cur()
	l := r.lane(0)
	w := &wireConn{addr: c.tcpAddr, tr: r.tracerFor(0, traced)}
	h := newHTTPConn(c.httpAddr)
	h.tr = w.tr
	defer w.close()
	defer h.close()

	pc := r.begin()
	if slices.Contains(checkpointPasses, i) {
		r.checkpoint(l, h)
	}
	done := false
	for f := 0; f < t.pass.frames(); f++ {
		if !time.Now().Before(pc.deadline) {
			done = true
			break
		}
		l.attempted++
		st, en, err := w.send(t.pass.frame(f))
		if err != nil {
			l.failed++
			continue
		}
		acked[f] = true
		lo, hi := t.pass.span(f)
		l.records += int64(hi - lo)
		l.ackMs = append(l.ackMs, ms(en.Sub(st)))
		// Probes start once pass 0 has given every key its first records.
		if t.sent++; i > 0 && t.sent%probeEvery == 0 {
			for j := 0; j < probeBurst; j++ {
				r.query(l, h, t.probes[t.next%len(t.probes)], spanHTTPEstimate)
				t.next++
			}
		}
		r.scrape(l, h, false)
	}
	if err := r.end(pc, traced); err != nil {
		return false, err
	}
	t.fold(&t.pass, acked)
	return done, nil
}

func (t *tcpIngest) tail(r *runner) error { return t.sendTail(r, tcpFrameLen) }

func (t *tcpIngest) replay(r *runner) (replayInput, error) {
	in := t.replayInput([]passFrames{{0, tcpFrameLen}}, passFrames{1, tcpFrameLen})
	in.rules = true
	return in, nil
}

// queryMix is the read-heavy workload: one keep-alive HTTP connection in
// a closed loop of estimates (90% single-key, 10% 64-key) with /v1/stats
// and /v1/topk once a second, beside one wire connection writing
// 1,024-record frames open-loop at 250,000 records/s. Setup preloads two
// passes of the tcp trace.
type queryMix struct {
	tcpTrace
	plan    []planQuery
	next    int
	preload [2]tcpPass
	preAck  [2][]bool
}

func (q *queryMix) sketchdArgs(dir string) []string {
	return []string{
		"-spec", tcpSpec, "-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0",
		"-wal-dir", dir + "/wal", "-fsync", "interval",
		"-checkpoint", dir + "/ckpt", "-checkpoint-interval", "0",
	}
}

func (q *queryMix) wantTCP() bool          { return true }
func (q *queryMix) closedLoopIngest() bool { return false }

func (q *queryMix) prepare(r *runner) error {
	if err := q.init(r.cfg.seed, r.cfg.keys); err != nil {
		return err
	}
	q.plan = mixPlan(q.seed, q.names)
	fp := newFingerprint("query-mix", tcpSpec, fmt.Sprint(r.cfg.keys, tcpFrameLen, writerFrameLen, writerRate))
	for p := range q.preload {
		genTCPPass(&q.preload[p], q.seed, q.names, p, tcpFrameLen)
		fp.add(q.preload[p].buf)
	}
	fp.addPlan(q.plan)
	r.fingerprint = fp.sum()
	return nil
}

// setup preloads two passes over the wire, one frame in flight.
func (q *queryMix) setup(r *runner) error {
	w := &wireConn{addr: r.cur().tcpAddr}
	defer w.close()
	l := r.lane(0)
	for p := range q.preload {
		q.preAck[p] = make([]bool, q.preload[p].frames())
		for f := range q.preAck[p] {
			l.attempted++
			if _, _, err := w.send(q.preload[p].frame(f)); err != nil {
				l.failed++
				continue
			}
			q.preAck[p][f] = true
		}
	}
	return nil
}

// writerInterval is the open-loop writer's frame period.
const writerInterval = time.Duration(float64(time.Second) * writerFrameLen / writerRate)

func (q *queryMix) phase(r *runner, i int, traced bool) (bool, error) {
	if i == 0 { // the kept set-up's preload joins the twin
		for p := range q.preload {
			q.fold(&q.preload[p], q.preAck[p])
			q.preload[p] = tcpPass{}
		}
	}
	genTCPPass(&q.pass, q.seed, q.names, 2+i, writerFrameLen)
	acked := q.resetAcked(q.pass.frames())
	c := r.cur()
	ql, wl := r.lane(0), r.lane(1)
	h := newHTTPConn(c.httpAddr)
	h.tr = r.tracerFor(0, traced)
	w := &wireConn{addr: c.tcpAddr, tr: r.tracerFor(1, traced)}
	defer h.close()
	defer w.close()

	pc := r.begin()
	stop := make(chan struct{})
	done := false
	runLanes(
		func() { // open-loop writer
			defer close(stop)
			var prevAck time.Time
			for f := 0; f < q.pass.frames(); f++ {
				due := pc.t0.Add(time.Duration(f) * writerInterval)
				if !due.Before(pc.deadline) {
					done = true
					return
				}
				if d := time.Until(due); d > 0 {
					idle := time.Now()
					time.Sleep(d)
					w.tr.recordIdle(idle, time.Now())
				}
				wl.attempted++
				st, en, err := w.send(q.pass.frame(f))
				if err != nil {
					wl.failed++
					continue
				}
				acked[f] = true
				lo, hi := q.pass.span(f)
				wl.records += int64(hi - lo)
				// A frame held back by the previous ack counts from when it
				// was due; one held back by timer slack, from its send.
				from := st
				if prevAck.After(due) {
					from = due
				}
				prevAck = en
				wl.ackMs = append(wl.ackMs, ms(en.Sub(from)))
				wl.lateMs = append(wl.lateMs, ms(st.Sub(due)))
			}
		},
		func() { // closed-loop queries
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.query(ql, h, q.plan[q.next%len(q.plan)], spanHTTPEstimate)
				q.next++
				r.scrape(ql, h, true)
			}
		},
	)
	if err := r.end(pc, traced); err != nil {
		return false, err
	}
	q.fold(&q.pass, acked)
	return done, nil
}

func (q *queryMix) tail(r *runner) error { return q.sendTail(r, writerFrameLen) }

func (q *queryMix) replay(r *runner) (replayInput, error) {
	// Phase 1 writes pass 3 on top of the preload (passes 0 and 1) and
	// phase 0 (pass 2).
	return q.replayInput([]passFrames{{0, tcpFrameLen}, {1, tcpFrameLen}, {2, writerFrameLen}},
		passFrames{3, writerFrameLen}), nil
}
