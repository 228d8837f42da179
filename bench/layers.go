package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	sbitmap "repro"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/uhash"
	"repro/internal/wal"
)

// Replay sizes and repetitions.
const (
	replayWALFrames    = 256  // frames appended in the WAL-alone step
	replayNDJSONBodies = 64   // NDJSON POSTs timed through ServeHTTP
	replayEstimates    = 4096 // keys of the query-path steps
	ingestReps         = 3    // repetitions of the ingest steps
	queryReps          = 5    // repetitions of the rules and query steps
)

// replayBatch is one recorded ingest batch: the SBF1 frame and its
// decoded records, either uint64 items or timestamped string items.
type replayBatch struct {
	raw   []byte
	keys  []string
	items []uint64
	strs  []string
	ts    time.Time
}

func (b *replayBatch) add(s *sbitmap.Store[string]) int {
	if b.strs != nil {
		return s.AddBatchStringAt(b.ts, b.keys, b.strs)
	}
	return s.AddBatch64(b.keys, b.items)
}

// replayInput is what a workload hands the in-process replay: its
// recorded batches (a cold prefix, then the traced phase's own batches),
// NDJSON bodies, query keys, and the server configuration it ran with.
type replayInput struct {
	spec       sbitmap.Spec
	policy     wal.FsyncPolicy
	dir        string
	cold, warm []replayBatch
	ndjson     [][]byte
	ndjsonRecs int           // records per NDJSON body
	viaNDJSON  bool          // the workload ingests over NDJSON
	rules      bool          // the workload's sketchd has rules installed
	hotKey     string        // the threshold rule's key
	estKeys    []string      // keys of the query-path steps
	window     time.Duration // > 0: estimates are window estimates
}

func records(bs []replayBatch) (n int) {
	for i := range bs {
		n += len(bs[i].keys)
	}
	return n
}

// replayLayers times each layer's public function on the recorded
// inputs: the cold batches bring fresh state to where the traced phase
// found it (untimed, except store.cold), and every per-record figure is
// measured on the warm batches — the phase itself. One layer at a time:
// hashing, frame decode, WAL append, rules. Cumulatively: uhash ⊂ sketch
// insert ⊂ Store apply ⊂ Server.IngestFrame. The ingest steps run
// ingestReps times from scratch and report medians.
func replayLayers(in replayInput) (map[string]float64, error) {
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)
	all := append(append([]replayBatch(nil), in.cold...), in.warm...)
	nWarm := float64(records(in.warm))
	recsPerFrame := nWarm / float64(len(in.warm))
	v := map[string]float64{}
	rep := 0 // numbers each repetition's data directory
	steps := []func() (map[string]float64, error){
		// Hashing alone: the batched hash of every item, no sketch behind it.
		func() (map[string]float64, error) {
			h := uhash.NewMixer(in.spec.Seed)
			var scr uhash.Scratch
			sink := func(hi, lo []uint64) int { return 0 }
			t0 := time.Now()
			for _, b := range in.warm {
				if b.strs != nil {
					uhash.BatchString(h, &scr, b.strs, sink)
				} else {
					uhash.Batch64(h, &scr, b.items, sink)
				}
			}
			return map[string]float64{"uhash.ns_per_rec": nsPer(time.Since(t0), nWarm)}, nil
		},
		// Hash + sketch insert: per-key counters from Spec.New, fed the
		// cold prefix, then resolved for every warm record before timing,
		// so the timed loop has no map and no locks.
		func() (map[string]float64, error) {
			base := in.spec
			base.Window, base.Ring = 0, 0
			byKey := map[string]sbitmap.Counter{}
			counter := func(k string) (sbitmap.Counter, error) {
				c, ok := byKey[k]
				if !ok {
					var err error
					if c, err = base.New(); err != nil {
						return nil, err
					}
					byKey[k] = c
				}
				return c, nil
			}
			per := make([][]sbitmap.Counter, len(in.warm))
			for bi, b := range all {
				var cs []sbitmap.Counter
				if bi >= len(in.cold) {
					cs = make([]sbitmap.Counter, len(b.keys))
					per[bi-len(in.cold)] = cs
				}
				for i, k := range b.keys {
					c, err := counter(k)
					if err != nil {
						return nil, err
					}
					switch {
					case cs != nil:
						cs[i] = c
					case b.strs != nil:
						c.AddString(b.strs[i])
					default:
						c.AddUint64(b.items[i])
					}
				}
			}
			t0 := time.Now()
			for bi, b := range in.warm {
				cs := per[bi]
				if b.strs != nil {
					for i, it := range b.strs {
						cs[i].AddString(it)
					}
				} else {
					for i, it := range b.items {
						cs[i].AddUint64(it)
					}
				}
			}
			return map[string]float64{"sketch.ns_per_rec": nsPer(time.Since(t0), nWarm)}, nil
		},
		// + Store route, stripe lock and slab: cold into an empty store,
		// then warm on top.
		func() (map[string]float64, error) {
			store, err := sbitmap.NewStore[string](in.spec)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			for i := range in.cold {
				in.cold[i].add(store)
			}
			cold := nsPer(time.Since(t0), float64(records(in.cold)))
			changed := 0
			t0 = time.Now()
			for i := range in.warm {
				changed += in.warm[i].add(store)
			}
			return map[string]float64{
				"store.cold_ns_per_rec": cold,
				"store.warm_ns_per_rec": nsPer(time.Since(t0), nWarm),
				"store.changed_frac":    float64(changed) / nWarm,
			}, nil
		},
		// Frame decode alone.
		func() (map[string]float64, error) {
			var f server.Frame
			defer f.Release()
			t0 := time.Now()
			for _, b := range in.warm {
				if err := f.DecodeBorrowed(b.raw); err != nil {
					return nil, err
				}
			}
			return map[string]float64{"server.decode_ns_per_rec": nsPer(time.Since(t0), nWarm)}, nil
		},
		// WAL append alone, under the workload's fsync policy.
		func() (map[string]float64, error) {
			rep++
			nWAL := min(replayWALFrames, len(in.warm))
			wlog, err := wal.Open(wal.Options{Dir: filepath.Join(in.dir, fmt.Sprint("wal-", rep)), Policy: in.policy})
			if err != nil {
				return nil, err
			}
			tag := []byte{1}
			walRecs := 0
			t0 := time.Now()
			for _, b := range in.warm[:nWAL] {
				if _, err := wlog.Append(tag, b.raw); err != nil {
					wlog.Close()
					return nil, err
				}
				walRecs += len(b.keys)
			}
			d := time.Since(t0)
			appended := wlog.Stats().AppendedBytes
			if err := wlog.Close(); err != nil {
				return nil, err
			}
			return map[string]float64{
				"wal.append_us_per_frame": float64(d.Nanoseconds()) / 1e3 / float64(nWAL),
				"wal.bytes_per_rec":       float64(appended) / float64(walRecs),
			}, nil
		},
	}
	for _, step := range steps {
		if err := medianOf(v, step); err != nil {
			return nil, err
		}
	}

	// Rules alone, on a warm store.
	store, err := sbitmap.NewStore[string](in.spec)
	if err != nil {
		return nil, err
	}
	for i := range all {
		all[i].add(store)
	}
	eng := rules.New(store, rules.Config{})
	for _, spec := range tcpRules(in.hotKey) {
		if _, err := eng.Put(spec); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	v["rules.observe_us_per_frame"] = medianMs(func() {
		for _, b := range in.warm {
			eng.ObserveIngest(b.keys, now, 0)
		}
	}) * 1e3 / float64(len(in.warm))
	// A tick over a store whose every stripe is dirty, as after a second
	// of scattered ingest: re-installing the scanning rule (accepted just
	// above, so it cannot fail now) forces the full scan each time.
	v["rules.tick_ms"] = medianMs(func() {
		_, _ = eng.Put(tcpRules(in.hotKey)[1])
		eng.Tick(now)
	})
	store, eng = nil, nil

	// The whole server ingest: gate, WAL append, Store apply, rules hot
	// path and stats, as one IngestFrame call per frame (decoded
	// beforehand, outside the timing), configured as the workload's
	// sketchd was. The last repetition's server serves the steps below.
	var srv *server.Server
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	err = medianOf(v, func() (map[string]float64, error) {
		if srv != nil {
			srv.Close()
		}
		rep++
		var err error
		srv, err = server.New(server.Config{
			Spec: in.spec, WALDir: filepath.Join(in.dir, fmt.Sprint("server-wal-", rep)), FsyncPolicy: in.policy,
		})
		if err != nil {
			return nil, err
		}
		if in.rules {
			for _, spec := range tcpRules(in.hotKey) {
				if _, err := srv.Rules().Put(spec); err != nil {
					return nil, err
				}
			}
		}
		var f server.Frame
		defer f.Release()
		ingest := func(bs []replayBatch) (time.Duration, error) {
			var d time.Duration
			for _, b := range bs {
				if err := f.DecodeBorrowed(b.raw); err != nil {
					return 0, err
				}
				t := time.Now()
				if _, err := srv.IngestFrame(b.raw, &f); err != nil {
					return 0, err
				}
				d += time.Since(t)
			}
			return d, nil
		}
		if _, err := ingest(in.cold); err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		warm, err := ingest(in.warm)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		return map[string]float64{
			"server.ingest_ns_per_rec": nsPer(warm, nWarm),
			"go.alloc_bytes_per_rec":   float64(m1.TotalAlloc-m0.TotalAlloc) / nWarm,
			"go.gc_cycles":             float64(m1.NumGC - m0.NumGC),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rulesPerRec := 0.0
	if in.rules {
		rulesPerRec = v["rules.observe_us_per_frame"] * 1e3 / recsPerFrame
	}
	v["server.residual_ns_per_rec"] = v["server.ingest_ns_per_rec"] - v["store.warm_ns_per_rec"] -
		v["wal.append_us_per_frame"]*1e3/recsPerFrame - rulesPerRec

	// An NDJSON POST through the HTTP handler, no socket.
	t0 := time.Now()
	for _, body := range in.ndjson {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/add", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process NDJSON POST: %d %s", rec.Code, rec.Body)
		}
	}
	v["server.ndjson_us_per_req"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(in.ndjson))

	// The query path on the ingested store.
	st := srv.Store()
	if in.window > 0 {
		if _, _, err := st.EstimateWindow(in.estKeys[0], in.window); err != nil {
			return nil, err
		}
	}
	v["store.estimate_ns"] = medianMs(func() {
		for _, k := range in.estKeys {
			if in.window > 0 {
				st.EstimateWindow(k, in.window) // the span was checked above
			} else {
				st.Estimate(k)
			}
		}
	}) * 1e6 / float64(len(in.estKeys))
	out, oks := make([]float64, multiKeys), make([]bool, multiKeys)
	nb := len(in.estKeys) / multiKeys
	v["store.estimate_batch_ns_per_key"] = medianMs(func() {
		for i := 0; i < nb; i++ {
			st.EstimateBatch(in.estKeys[i*multiKeys:(i+1)*multiKeys], out, oks)
		}
	}) * 1e6 / float64(nb*multiKeys)
	v["store.footprint_ms"] = medianMs(func() { st.Footprint(); st.SizeBits() })
	v["store.topk_ms"] = medianMs(func() { st.TopK(10) })
	serve := func(path string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	v["server.topk_ms"] = medianMs(func() { serve("/v1/topk?k=10") })
	suffix := ""
	if in.window > 0 {
		suffix = "&window=" + in.window.String()
	}
	paths := make([]string, len(in.estKeys))
	for i, k := range in.estKeys {
		paths[i] = estimatePath(k) + suffix
	}
	for _, p := range paths {
		if code := serve(p); code != http.StatusOK && code != http.StatusNotFound {
			return nil, fmt.Errorf("in-process GET %s: %d", p, code)
		}
	}
	v["server.estimate_us"] = medianMs(func() {
		for _, p := range paths {
			serve(p)
		}
	}) * 1e3 / float64(len(paths))
	return v, nil
}

func nsPer(d time.Duration, n float64) float64 { return float64(d.Nanoseconds()) / n }

// medianOf runs step ingestReps times and stores the median of each value
// it reports in v.
func medianOf(v map[string]float64, step func() (map[string]float64, error)) error {
	runs := map[string][]float64{}
	for i := 0; i < ingestReps; i++ {
		vals, err := step()
		if err != nil {
			return err
		}
		for k, x := range vals {
			runs[k] = append(runs[k], x)
		}
	}
	for k, xs := range runs {
		v[k] = median(xs)
	}
	return nil
}

// medianMs times fn queryReps times and returns the median in ms.
func medianMs(fn func()) float64 {
	var xs []float64
	for i := 0; i < queryReps; i++ {
		t := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs)
}
