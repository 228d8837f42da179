package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	sbitmap "repro"
	"repro/internal/server"
)

// workload is one traffic mix. A run drives it through the same
// sequence: prepare inputs, set up sketchd (timed as setup_s), run timed
// phases until the run's seconds are spent, then ingest a fixed tail,
// verify, crash and recover (timed as recovery_s), and verify again.
type workload interface {
	// sketchdArgs returns the workload's sketchd flags, data under dir.
	sketchdArgs(dir string) []string
	wantTCP() bool
	// prepare generates the inputs that do not depend on sketchd (query
	// plans, the input fingerprint, the twin store). Untimed.
	prepare(r *runner) error
	// setup brings a fresh sketchd to the workload's starting state. It
	// is part of setup_s and runs once per setup repetition.
	setup(r *runner) error
	// phase generates phase i's inputs (untimed), runs them between
	// r.begin and r.end until they are spent or the phase clock's
	// deadline passes, then folds the acked records into the twin. done
	// reports the deadline.
	phase(r *runner, i int, traced bool) (done bool, err error)
	// tail ingests the fixed post-run tail (untimed) after the final
	// checkpoint, so every run's recovery replays the same bytes.
	tail(r *runner) error
	// verify checks the served state against the twin, bit for bit, and
	// returns the per-key RRMSE against the exact truth.
	verify(r *runner) (rrmse float64, err error)
	// replay pushes the workload's recorded inputs through each layer's
	// public function in-process (traced runs only).
	replay(r *runner) (replayInput, error)
	// closedLoopIngest reports whether ingest runs as fast as sketchd
	// acks it; the tracing overhead is then measured per record, else
	// per query (the open-loop writer's rate is fixed).
	closedLoopIngest() bool
}

// A run sets sketchd up at least minSetups times and until setupBudget
// has been spent; setup_s is the median, and the last set-up is the one
// the run uses. Exec to ready takes a few milliseconds and swings with the
// host, so cheap set-ups repeat hundreds of times; query-mix's preload
// takes over a second and stops at the minimum.
const (
	minSetups   = 5
	setupBudget = 5 * time.Second
)

// Memory and footprint are measured over the first memPhases phases: on
// tcp-ingest and ndjson-window the same amount of work on every run,
// whatever the host's speed, which a deadline-bounded run's end is not
// (ndjson-window's footprint and resident set grow as cold keys fill their
// window rings). query-mix has fewer phases; its writer's fixed rate fixes
// its work. rss_peak_mb is the mean of the phases' peak resident sets: one
// phase's peak is one draw of the Go collector's timing, and the peaks
// trend upward on ndjson-window, so a median would rest on one or two
// middle phases. bytes_per_key is read once the window is done.
const memPhases = 10

// restarts is how many kill-and-recover cycles a run times; recovery_s is
// their median.
const restarts = 3

// lane is the state of one client timeline — one goroutine driving one
// or more connections. Lanes are merged after each phase.
type lane struct {
	tr                *tracer
	ackMs, queryMs    []float64
	scrapeMs, topkMs  []float64
	lateMs            []float64
	records, queries  int64
	attempted, failed int64
	checkpoints       []server.CheckpointInfo
}

// runner holds one run's state and accounting.
type runner struct {
	cfg  config
	w    workload
	root string
	bin  string
	dir  string // sketchd data (removed at exit)
	args []string
	base time.Time // time base of spans

	mu    sync.Mutex // guards child for the signal handler
	child *child

	lanes []*lane

	setupS   []float64
	timed    time.Duration
	recovery []float64
	// Per timed phase: records and estimate queries per second, and
	// sketchd CPU microseconds per record. The end-to-end rates are their
	// medians, which a transient stall of the host moves less than a mean.
	phaseRPS, phaseQPS, phaseCPU []float64
	// Per timed phase: sketchd's peak resident set in MB (VmHWM, reset as
	// the phase begins).
	phaseRSS []float64

	// Tracing-overhead buckets: wall time and work of untraced and traced
	// phases.
	wall, work [2]float64
	// Every phase's span of time (ns since base) and acked records; the
	// trace metrics describe phase 1, the traced phase the replay rebuilds.
	windows []phaseWindow

	left       time.Duration // timed budget the next phase may use
	nextScrape time.Time     // lane 0's next /v1/stats (and top-k) scrape

	fingerprint string
	phases      int
	values      map[string]float64
	samples     map[string]int
	notes       []string
}

func (r *runner) lane(i int) *lane {
	for len(r.lanes) <= i {
		l := &lane{}
		if r.cfg.trace {
			l.tr = newTracer(r.base, len(r.lanes))
		}
		r.lanes = append(r.lanes, l)
	}
	return r.lanes[i]
}

// tracerFor returns lane i's tracer when the phase is traced, else nil.
func (r *runner) tracerFor(i int, traced bool) *tracer {
	if !traced {
		return nil
	}
	return r.lane(i).tr
}

func (r *runner) setChild(c *child) {
	r.mu.Lock()
	r.child = c
	r.mu.Unlock()
}

// stop kills the running child, if any, and waits for it.
func (r *runner) stop() {
	r.mu.Lock()
	c := r.child
	r.child = nil
	r.mu.Unlock()
	if c != nil {
		c.kill()
	}
}

func (r *runner) cur() *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.child
}

// run executes the whole run and fills r.values.
func (r *runner) run() error {
	r.values, r.samples = map[string]float64{}, map[string]int{}
	r.base = time.Now()
	r.args = r.w.sketchdArgs(r.dir)
	if r.cfg.maxBody > 0 {
		r.args = append(r.args, "-max-body", fmt.Sprint(r.cfg.maxBody))
	}
	if err := r.w.prepare(r); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.runPhases(); err != nil {
		return err
	}
	if err := r.finish(); err != nil {
		return err
	}
	if r.cfg.trace {
		in, err := r.w.replay(r)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		in.dir = filepath.Join(r.dir, "replay")
		layers, err := replayLayers(in)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		for k, v := range layers {
			r.values[k] = v
		}
		r.traceMetrics(in)
	}
	return nil
}

// setup starts sketchd repeatedly on empty data directories, timing exec
// to ready plus the workload's own setup, and keeps the last.
func (r *runner) setup() error {
	spent := 0.0
	for rep := 0; rep < minSetups || spent < setupBudget.Seconds(); rep++ {
		r.stop()
		if err := os.RemoveAll(r.dir); err != nil {
			return err
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		c, err := startChild(r.bin, r.args, r.w.wantTCP())
		if err != nil {
			return err
		}
		r.setChild(c)
		if err := r.w.setup(r); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		spent += r.setupS[rep]
	}
	return nil
}

// runPhases runs timed phases until cfg.seconds of timed work is spent.
// Traced runs alternate untraced and traced phases, so the tracing
// overhead is measured on the same server, and always give phase 1 — the
// one the replay rebuilds — at least a quarter of the budget.
func (r *runner) runPhases() error {
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	for i := 0; ; i++ {
		traced := r.cfg.trace && i%2 == 1
		r.left = budget - r.timed
		if traced && i == 1 {
			r.left = max(r.left, budget/4)
		}
		if r.left <= 0 {
			return nil
		}
		done, err := r.w.phase(r, i, traced)
		if err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
		r.phases = i + 1
		if r.phases == memPhases {
			if err := r.footprint(); err != nil {
				return err
			}
		}
		if done && (!r.cfg.trace || i >= 1) {
			return nil
		}
	}
}

type phaseWindow struct{ t0, t1, records int64 }

// phaseClock brackets one timed phase.
type phaseClock struct {
	t0       time.Time
	deadline time.Time // when the phase's share of the budget runs out
	cpu0     float64
	rec0     int64
	q0       int64
	lens     [][3]int // per lane: ack, query and scrape samples before the phase
	rssErr   error
}

// begin starts a timed phase: inputs are generated, nothing is in flight,
// and the bench's own garbage is collected so its GC stays out of the
// timing.
func (r *runner) begin() phaseClock {
	runtime.GC()
	var pc phaseClock
	c := r.cur()
	pc.cpu0, _ = c.cpuSeconds() // an unreadable /proc fails the run in end
	pc.rssErr = c.resetPeakRSS()
	for _, l := range r.lanes {
		pc.rec0 += l.records
		pc.q0 += l.queries
		pc.lens = append(pc.lens, [3]int{len(l.ackMs), len(l.queryMs), len(l.scrapeMs)})
	}
	pc.t0 = time.Now()
	pc.deadline = pc.t0.Add(r.left)
	return pc
}

// end closes a timed phase and books its wall time, CPU and work. The
// speed of a traced phase is left out of the speed metrics: the tracing
// overhead is reported on its own.
func (r *runner) end(pc phaseClock, traced bool) error {
	wall := time.Since(pc.t0)
	c := r.cur()
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return fmt.Errorf("sketchd cpu: %w", err)
	}
	rss, err := c.peakRSSMB()
	if err = errors.Join(pc.rssErr, err); err != nil {
		return fmt.Errorf("sketchd peak rss: %w", err)
	}
	r.phaseRSS = append(r.phaseRSS, rss)
	r.timed += wall
	var rec, q int64
	for _, l := range r.lanes {
		rec += l.records
		q += l.queries
	}
	secs := wall.Seconds()
	if !traced {
		r.phaseRPS = append(r.phaseRPS, float64(rec-pc.rec0)/secs)
		r.phaseQPS = append(r.phaseQPS, float64(q-pc.q0)/secs)
		if rec > pc.rec0 {
			r.phaseCPU = append(r.phaseCPU, (cpu1-pc.cpu0)*1e6/float64(rec-pc.rec0))
		}
	} else {
		for i, l := range r.lanes {
			var n [3]int
			if i < len(pc.lens) {
				n = pc.lens[i]
			}
			l.ackMs, l.queryMs, l.scrapeMs = l.ackMs[:n[0]], l.queryMs[:n[1]], l.scrapeMs[:n[2]]
		}
	}
	r.windows = append(r.windows, phaseWindow{
		t0: pc.t0.Sub(r.base).Nanoseconds(), t1: pc.t0.Add(wall).Sub(r.base).Nanoseconds(), records: rec - pc.rec0,
	})
	b := 0
	if traced {
		b = 1
	}
	r.wall[b] += wall.Seconds()
	if !r.w.closedLoopIngest() {
		r.work[b] += float64(q - pc.q0)
	} else {
		r.work[b] += float64(rec - pc.rec0)
	}
	return nil
}

// get issues a GET on h and books its outcome on l. ok reports a 200.
func (r *runner) get(l *lane, h *httpConn, root uint8, path string) (body []byte, lat time.Duration, ok bool) {
	l.attempted++
	status, body, st, en, err := h.do(root, http.MethodGet, path, "", nil)
	if err != nil || status != http.StatusOK {
		l.failed++
		return nil, en.Sub(st), false
	}
	return body, en.Sub(st), true
}

// query issues one estimate query from a plan and books its latency.
func (r *runner) query(l *lane, h *httpConn, q planQuery, root uint8) {
	if q.batch {
		root = spanHTTPEstimateBatch
	}
	_, lat, ok := r.get(l, h, root, q.path)
	if ok {
		l.queries++
		l.queryMs = append(l.queryMs, ms(lat))
	}
}

// scrape reads /v1/stats (and, when withTopK, /v1/topk?k=10) once per
// second of wall time. Only lane 0 calls it.
func (r *runner) scrape(l *lane, h *httpConn, withTopK bool) {
	now := time.Now()
	if now.Before(r.nextScrape) {
		return
	}
	r.nextScrape = now.Add(time.Second)
	if _, lat, ok := r.get(l, h, spanHTTPStats, "/v1/stats"); ok {
		l.scrapeMs = append(l.scrapeMs, ms(lat))
	}
	if withTopK {
		if _, lat, ok := r.get(l, h, spanHTTPTopK, "/v1/topk?k=10"); ok {
			l.topkMs = append(l.topkMs, ms(lat))
		}
	}
}

// checkpoint POSTs /v1/checkpoint and books its answer.
func (r *runner) checkpoint(l *lane, h *httpConn) {
	l.attempted++
	status, body, _, _, err := h.do(spanHTTPCheckpoint, http.MethodPost, "/v1/checkpoint", "", nil)
	var info server.CheckpointInfo
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &info) != nil {
		l.failed++
		return
	}
	l.checkpoints = append(l.checkpoints, info)
}

// stats reads /v1/stats.
func (r *runner) stats(l *lane, h *httpConn) (server.Stats, error) {
	body, _, ok := r.get(l, h, spanHTTPStats, "/v1/stats")
	var st server.Stats
	if !ok {
		return st, errors.New("GET /v1/stats failed")
	}
	return st, json.Unmarshal(body, &st)
}

// footprint reads bytes_per_key, footprint ÷ keys, from /v1/stats, once
// per run.
func (r *runner) footprint() error {
	h := newHTTPConn(r.cur().httpAddr)
	defer h.close()
	st, err := r.stats(r.lane(0), h)
	if err != nil {
		return err
	}
	if st.Keys > 0 {
		r.values["bytes_per_key"] = float64(st.FootprintBytes) / float64(st.Keys)
	}
	r.samples["footprint_after_phases"] = r.phases
	return nil
}

// finish runs the post-phase sequence: the footprint if the run had fewer
// than memPhases phases, checkpoint, tail, verify, timed kill-and-recover
// cycles, verify again. A verification mismatch still completes the
// sequence and the metrics, then is returned.
func (r *runner) finish() error {
	defer r.summarize()
	if _, ok := r.samples["footprint_after_phases"]; !ok {
		if err := r.footprint(); err != nil {
			return err
		}
	}
	c := r.cur()
	l := r.lane(0)
	h := newHTTPConn(c.httpAddr)
	defer h.close()
	r.checkpoint(l, h)
	if err := r.w.tail(r); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	rrmse, verr := r.w.verify(r)
	if verr != nil && !errors.Is(verr, errMismatch) {
		return fmt.Errorf("verify: %w", verr)
	}
	r.values["rrmse"] = rrmse
	for i := 0; i < restarts; i++ {
		t0 := time.Now()
		r.stop()
		c, err := startChild(r.bin, r.args, r.w.wantTCP())
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		r.setChild(c)
		r.recovery = append(r.recovery, time.Since(t0).Seconds())
		if i == 0 {
			h2 := newHTTPConn(c.httpAddr)
			st, err := r.stats(l, h2)
			h2.close()
			if err != nil {
				return err
			}
			r.values["recovery.ms"] = float64(st.RecoveryMillis)
			r.values["recovery.replayed_records"] = float64(st.ReplayedRecords)
		}
	}
	if _, err := r.w.verify(r); err != nil {
		return fmt.Errorf("verify after restart: %w", err)
	}
	r.stop()
	if verr != nil {
		return fmt.Errorf("verify: %w", verr)
	}
	return nil
}

// summarize turns the accounting into the end-to-end metrics.
func (r *runner) summarize() {
	var ack, qry, scr, topk, late []float64
	var cks []server.CheckpointInfo
	for _, l := range r.lanes {
		ack = append(ack, l.ackMs...)
		qry = append(qry, l.queryMs...)
		scr = append(scr, l.scrapeMs...)
		topk = append(topk, l.topkMs...)
		late = append(late, l.lateMs...)
		cks = append(cks, l.checkpoints...)
	}
	ack, qry = sortedCopy(ack), sortedCopy(qry)
	v := r.values
	v["setup_s"] = median(r.setupS)
	v["rss_peak_mb"] = mean(r.phaseRSS[:min(len(r.phaseRSS), memPhases)])
	v["rss_run_peak_mb"] = slices.Max(r.phaseRSS)
	v["ingest_rps"] = median(r.phaseRPS)
	v["ack_p50_ms"] = quantile(ack, 0.5)
	v["ack_p99_ms"] = quantile(ack, 0.99)
	v["query_qps"] = median(r.phaseQPS)
	v["query_p50_ms"] = quantile(qry, 0.5)
	v["query_p99_ms"] = quantile(qry, 0.99)
	v["scrape_ms"] = median(scr)
	v["recovery_s"] = median(r.recovery)
	v["cpu_us_per_rec"] = median(r.phaseCPU)
	var ckMs, ckBytes, ckStripes []float64
	for _, c := range cks {
		ckMs = append(ckMs, c.Seconds*1e3)
		ckBytes = append(ckBytes, float64(c.Bytes))
		ckStripes = append(ckStripes, float64(c.StripesWritten))
	}
	v["checkpoint.ms"] = median(ckMs)
	v["checkpoint.bytes"] = median(ckBytes)
	v["checkpoint.stripes"] = median(ckStripes)
	r.samples["ack"] = len(ack)
	r.samples["ack_beyond_p99"] = beyond(len(ack), 0.99)
	r.samples["query"] = len(qry)
	r.samples["query_beyond_p99"] = beyond(len(qry), 0.99)
	r.samples["scrape"] = len(scr)
	r.samples["topk"] = len(topk)
	r.samples["setup"] = len(r.setupS)
	r.samples["restarts"] = len(r.recovery)
	r.samples["checkpoints"] = len(cks)
	r.samples["phases"] = r.phases
	if len(topk) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("topk median %.3f ms over %d", median(topk), len(topk)))
	}
	if len(late) > 0 {
		s := sortedCopy(late)
		r.notes = append(r.notes, fmt.Sprintf("open-loop writer lateness p50 %.3f ms, p99 %.3f ms over %d frames",
			quantile(s, 0.5), quantile(s, 0.99), len(s)))
	}
}

// traceMetrics derives the span-based and residual metrics of a traced
// run from the spans of phase 1 and the replay of that phase's inputs.
func (r *runner) traceMetrics(in replayInput) {
	v := r.values
	var tracers []*tracer
	for _, l := range r.lanes {
		tracers = append(tracers, l.tr)
	}
	w := r.windows[1]
	s := summarize(tracers, w.t0, w.t1)
	lanes := float64(len(r.lanes))
	recs := float64(w.records)
	wallNs := float64(w.t1 - w.t0)
	perRec := func(d time.Duration) float64 { return float64(d) / recs }
	v["trace.e2e_ns_per_rec"] = lanes * wallNs / recs
	v["trace.write_ns_per_rec"] = perRec(s.ingestWrite)
	v["trace.wait_ns_per_rec"] = perRec(s.ingestWait)
	v["trace.other_ns_per_rec"] = perRec(s.other)
	v["trace.gap_frac"] = 1 - float64(s.total)/(lanes*wallNs)
	v["trace.overhead_frac"] = (r.wall[1]/r.work[1])/(r.wall[0]/r.work[0]) - 1
	// The client-visible cost of an ingest request minus what the server
	// spends on it in-process: syscalls, scheduler, GC and the client.
	ingest := perRec(s.ingestWrite + s.ingestWait)
	if in.viaNDJSON {
		v["transport.residual_ns_per_rec"] = ingest - v["server.ndjson_us_per_req"]*1e3/float64(in.ndjsonRecs)
	} else {
		v["transport.residual_ns_per_rec"] = ingest - v["server.ingest_ns_per_rec"] - v["server.decode_ns_per_rec"]
	}
	if s.estimates > 0 {
		v["http.residual_us"] = float64(s.estimate)/float64(s.estimates)/1e3 - v["server.estimate_us"]
	}
	if r.cfg.spans != "" {
		if err := writeSpans(r.cfg.spans, r.cfg.workload, tracers); err != nil {
			r.notes = append(r.notes, "span file: "+err.Error())
		}
	}
}

// twinView is what verifyPlain checks a served store against: the twin
// store holding the keys for which holds is true (every key when holds is
// nil), how many keys the served store must hold, and each key's exact
// distinct count.
type twinView struct {
	store *sbitmap.Store[string]
	names []string
	holds func(k int) bool
	keys  int
	truth func(k int) float64
}

// verifyPlain reads every key's served estimate with multi-key GET
// /v1/estimate, checks the twin's keys bit for bit and the served key
// count, and returns the RRMSE of the served estimates against the truth
// over keys with truth > 0.
func (r *runner) verifyPlain(l *lane, h *httpConn, tv twinView) (float64, error) {
	const batch = 256
	want := make([]float64, batch)
	wantOK := make([]bool, batch)
	var sq float64
	var n, bad int
	var first string
	for lo := 0; lo < len(tv.names); lo += batch {
		keys := tv.names[lo:min(lo+batch, len(tv.names))]
		body, _, ok := r.get(l, h, spanHTTPEstimateBatch, estimateBatchPath(keys))
		if !ok {
			return 0, fmt.Errorf("multi-estimate of keys %d..%d failed", lo, lo+len(keys)-1)
		}
		var got server.MultiEstimateResult
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		if len(got.Results) != len(keys) {
			return 0, fmt.Errorf("multi-estimate returned %d results for %d keys", len(got.Results), len(keys))
		}
		tv.store.EstimateBatch(keys, want[:len(keys)], wantOK[:len(keys)])
		for i, e := range got.Results {
			k := lo + i
			if tv.holds == nil || tv.holds(k) {
				if e.OK != wantOK[i] || math.Float64bits(e.Estimate) != math.Float64bits(want[i]) {
					if bad++; first == "" {
						first = fmt.Sprintf("key %s: served %v (ok=%v), twin %v (ok=%v)", keys[i], e.Estimate, e.OK, want[i], wantOK[i])
					}
					continue
				}
			}
			if t := tv.truth(k); t > 0 {
				rel := e.Estimate/t - 1
				sq += rel * rel
				n++
			}
		}
	}
	if bad > 0 {
		return 0, fmt.Errorf("%w: %d keys differ; first: %s", errMismatch, bad, first)
	}
	st, err := r.stats(l, h)
	if err != nil {
		return 0, err
	}
	if st.Keys != tv.keys {
		return 0, fmt.Errorf("%w: served store has %d keys, want %d", errMismatch, st.Keys, tv.keys)
	}
	if n == 0 {
		return 0, nil
	}
	return math.Sqrt(sq / float64(n)), nil
}

// attempted and failed total the run's operations.
func (r *runner) outcome() (attempted, failed int64) {
	for _, l := range r.lanes {
		attempted += l.attempted
		failed += l.failed
	}
	return attempted, failed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runLanes runs fns concurrently, one per lane, and waits for all.
func runLanes(fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}
