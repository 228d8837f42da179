// Package server is the counting-service face of the module: it exposes a
// keyed Store[string] over HTTP, turning the library the paper's online
// monitoring setting assumes into a process a remote producer can feed and
// a remote consumer can query.
//
// The API surface (all JSON unless noted):
//
//	POST /v1/add         ingest a batch: NDJSON {"key":...,"item":...}
//	                     lines (optionally timestamped with "ts", unix
//	                     nanoseconds), or a compact binary add frame
//	                     (Content-Type application/x-sbitmap-frame) that
//	                     decodes straight onto the Store's keyed batch path
//	GET  /v1/estimate    ?key=K — one key's distinct-count estimate;
//	                     &window=5m answers over the trailing window on a
//	                     store built with the windowed(...) spec modifier;
//	                     repeating key= reads many keys in one batched pass
//	GET  /v1/topk        ?k=N — heavy hitters by estimate
//	GET  /v1/stats       store totals, spec, and live ingest/query metrics
//	PUT  /v1/rules       install (or replace) a standing query; body is a
//	                     rules.Spec — threshold, prefix (superspreader), or
//	                     movers
//	GET  /v1/rules       list installed rules; /v1/rules/{id} reads one
//	DELETE /v1/rules/{id}  remove a rule
//	GET  /v1/alerts      ?limit=N — recent alert history, newest first
//	GET  /v1/alerts/stream  live alerts as Server-Sent Events; ?replay=N
//	                     prepends the N most recent historical alerts
//	POST /v1/merge       body is a Store snapshot envelope from a peer or
//	                     edge agent; key-wise union merge (Mergeable kinds)
//	POST /v1/checkpoint  write a durable snapshot now
//	GET  /v1/healthz     liveness: status, spec, uptime (JSON)
//	GET  /v1/cluster     this node's cluster topology (role, peers)
//	GET  /healthz        plain-text liveness probe (curl/load-balancer)
//
// Errors are typed: every 4xx/5xx body is {"error":{"code":...,
// "message":...}} with a stable machine-readable code.
//
// Durability is incremental: Config.WALDir enables a write-ahead log of
// ingest frames appended before any ack (see IngestFrame), and
// Config.CheckpointDir enables manifest-led per-stripe checkpoints whose
// cost scales with the write rate, not the key count. New recovers by
// restoring the newest manifest's stripes and replaying the WAL tail, so
// a restarted server resumes counting with exactly the records it acked.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	sbitmap "repro"
	"repro/internal/pstats"
	"repro/internal/rules"
	"repro/internal/wal"
)

// DefaultMaxBodyBytes bounds /v1/add and /v1/merge request bodies when
// Config.MaxBodyBytes is zero: 32 MiB, a few hundred thousand records per
// frame, far above any sensible batch.
const DefaultMaxBodyBytes = 32 << 20

// Config dimensions a Server. Spec is required; everything else defaults.
type Config struct {
	// Spec dimensions every per-key counter (see sbitmap.Spec).
	Spec sbitmap.Spec
	// MaxKeys bounds live keys via the Store's eviction policy; 0 means
	// unbounded.
	MaxKeys int
	// Stripes overrides the Store's lock-stripe count; 0 means default.
	Stripes int
	// CheckpointDir, when non-empty, enables durable snapshots: a
	// directory holding per-stripe snapshot files under MANIFEST.json.
	// New restores the newest manifest; Checkpoint (and cmd/sketchd's
	// timer/SIGTERM hooks) writes only the stripes dirtied since the last
	// checkpoint, each via atomic tmp/fsync/rename with the manifest
	// committed last and the directory fsynced.
	CheckpointDir string
	// WALDir, when non-empty, enables the write-ahead log: every ingest
	// mutation is appended (as an SBF1 frame or merge snapshot record)
	// before its ack, and New replays the log tail on top of the restored
	// checkpoint. Completed checkpoints truncate obsolete segments.
	WALDir string
	// FsyncPolicy governs when WAL appends reach stable storage; the zero
	// value is wal.FsyncAlways (acked means durable).
	FsyncPolicy wal.FsyncPolicy
	// FsyncInterval is the flush period under wal.FsyncInterval; 0 means
	// wal.DefaultSyncInterval.
	FsyncInterval time.Duration
	// WALSegmentBytes caps a WAL segment before rotation; 0 means
	// wal.DefaultSegmentBytes.
	WALSegmentBytes int64
	// MaxDurabilityLag, when > 0, degrades GET /v1/healthz to 503 (with a
	// typed body) whenever the durability lag — how long the oldest acked
	// but not yet durable mutation has been waiting — exceeds it.
	MaxDurabilityLag time.Duration
	// MaxBodyBytes bounds ingest/merge request bodies; 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RuleEvalInterval, when > 0, runs the standing-query engine on a
	// timer: every interval the server ticks the rules engine, scanning
	// the stripes dirtied since the previous tick. 0 disables the timer;
	// rules still evaluate on the ingest hot path (threshold rules) and
	// whenever Rules().Tick is driven explicitly (tests, benches).
	RuleEvalInterval time.Duration
	// AlertRing caps the in-memory alert history ring served by
	// GET /v1/alerts; 0 means rules.DefaultRingSize.
	AlertRing int
	// Cluster describes this node's place in a sketchd cluster (role,
	// static peer list, aggregator); the zero value is a standalone node.
	// Informational: the server reports it on GET /v1/cluster so any node
	// can tell a client the topology, but routing stays client-side.
	Cluster ClusterInfo
}

// Cluster roles. A zero/empty role reports as RoleStandalone.
const (
	RoleStandalone = "standalone"
	RoleEdge       = "edge"
	RoleAggregator = "aggregator"
)

// ClusterInfo is this node's view of the cluster topology, served on
// GET /v1/cluster. Peers is the partition set (every node's base URL, in
// ring order — identical lists on every node and client yield identical
// key placement); Aggregator is where an edge node pushes snapshots.
type ClusterInfo struct {
	Role                string   `json:"role"`
	Peers               []string `json:"peers,omitempty"`
	Aggregator          string   `json:"aggregator,omitempty"`
	PushIntervalSeconds float64  `json:"push_interval_seconds,omitempty"`
}

// Server serves one keyed Store over HTTP. It implements http.Handler;
// compose it into an http.Server (cmd/sketchd) or an httptest.Server.
type Server struct {
	cfg   Config
	store *sbitmap.Store[string]
	mux   *http.ServeMux
	start time.Time

	// gate is the ingest gate that makes a checkpoint an exact cut: every
	// ingest mutation holds it shared around its (WAL append, store apply)
	// pair, and Checkpoint holds it exclusive while capturing the cut LSN
	// and marshaling dirty stripes into memory — so the snapshot equals
	// "exactly the records below the cut applied" and replay partitions
	// perfectly. File I/O happens outside the gate; the stall scales with
	// the dirty data, not the store.
	gate sync.RWMutex

	// wlog is the write-ahead log; nil when Config.WALDir is empty.
	wlog *wal.Log

	// rules is the standing-query engine watching the store; its state
	// rides in the checkpoint manifest. The eval loop (when
	// Config.RuleEvalInterval > 0) ticks it until Close.
	rules    *rules.Engine
	evalStop chan struct{}
	evalDone chan struct{}
	evalOnce sync.Once

	// ckMu serializes checkpoint writes and guards the manifest chain
	// (man, ckSince, ckLSN).
	ckMu    sync.Mutex
	man     *manifest // newest committed manifest (nil before the first)
	ckSince uint64    // dirty-stripe cut of the next incremental pass
	ckLSN   uint64    // WAL LSN the newest manifest replays from

	restoredKeys    int
	replayedRecords int
	recoveryNanos   int64

	// walPending counts WAL bytes past the newest checkpoint — what a
	// crash right now would replay. Appends add, a committed checkpoint
	// subtracts its cut, both under the gate, so the figure is exact.
	walPending atomic.Int64
	// mutations counts ingest mutations since the last durable point;
	// with no WAL it drives the durability-lag figure.
	mutations           atomic.Int64
	lastDurableUnixNano atomic.Int64

	// Live metrics, reported by /v1/stats. The ingest and query counters
	// sit on every request's hot path and are sharded over padded cache
	// lines (pstats) so concurrent connections do not serialize on a
	// metrics word; the merge/checkpoint gauges are cold and stay plain
	// atomics.
	addRequests    pstats.Counter
	recordsTotal   pstats.Counter
	changedTotal   pstats.Counter
	queryRequests  pstats.Counter
	mergeRequests  atomic.Int64
	mergedKeys     atomic.Int64
	checkpoints    atomic.Int64
	lastCkUnixNano atomic.Int64
	lastCkBytes    atomic.Int64
	lastCkNanos    atomic.Int64
	lastCkStripes  atomic.Int64
}

// New builds a Server: validates the spec, recovers durable state —
// restore the newest manifest's stripes (whose spec must match
// cfg.Spec), open the WAL (healing a torn tail, refusing on corruption
// with a typed error), replay the tail on top — and wires the routes.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("server: max body %d < 0", cfg.MaxBodyBytes)
	}
	if cfg.Stripes < 0 {
		return nil, fmt.Errorf("server: stripe count %d < 0", cfg.Stripes)
	}
	if cfg.MaxKeys < 0 {
		return nil, fmt.Errorf("server: key limit %d < 0", cfg.MaxKeys)
	}
	switch cfg.Cluster.Role {
	case "", RoleStandalone, RoleEdge, RoleAggregator:
	default:
		return nil, fmt.Errorf("server: unknown cluster role %q (want %s, %s, or %s)",
			cfg.Cluster.Role, RoleStandalone, RoleEdge, RoleAggregator)
	}
	var opts []sbitmap.StoreOption
	if cfg.Stripes > 0 {
		opts = append(opts, sbitmap.WithStripes(cfg.Stripes))
	}
	if cfg.MaxKeys > 0 {
		opts = append(opts, sbitmap.WithMaxKeys(cfg.MaxKeys))
	}
	s := &Server{cfg: cfg, start: time.Now()}
	s.lastDurableUnixNano.Store(s.start.UnixNano())
	recoverStart := time.Now()
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
		man, st, n, err := loadManifest(cfg.CheckpointDir, cfg.Spec, opts)
		if err != nil {
			return nil, err
		}
		if man != nil {
			s.store, s.restoredKeys = st, n
			s.man, s.ckSince, s.ckLSN = man, man.Gen, man.WALLSN
			if st.StripeCount() != man.Stripes {
				// The stripe count changed across the restart: per-stripe
				// dirt recorded under the old layout no longer maps onto
				// this one, so the next checkpoint must be a full pass.
				s.ckSince = 0
			}
		}
	}
	if s.store == nil {
		st, err := sbitmap.NewStore[string](cfg.Spec, opts...)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
	}
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: wal dir: %w", err)
		}
		wlog, err := wal.Open(wal.Options{
			Dir:          cfg.WALDir,
			SegmentBytes: cfg.WALSegmentBytes,
			Policy:       cfg.FsyncPolicy,
			SyncInterval: cfg.FsyncInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("server: refusing to start: %w", err)
		}
		s.wlog = wlog
		replayed, pending, err := s.replayWAL(s.ckLSN)
		if err != nil {
			wlog.Close()
			return nil, fmt.Errorf("server: refusing to start: wal replay: %w", err)
		}
		s.replayedRecords = replayed
		s.walPending.Store(pending)
		// Replayed records came off stable storage: they are durable, only
		// not yet folded into a checkpoint.
		s.mutations.Store(0)
	}
	// The rules engine restores after the store is fully recovered
	// (checkpoint + WAL tail): restored firing state must attach to the
	// estimates it fired on, and a rule recompiling against a changed
	// spec is a refusal, not a silent drop.
	s.rules = rules.New(s.store, rules.Config{RingSize: cfg.AlertRing})
	if s.man != nil && s.man.Rules != nil {
		if err := s.rules.Restore(*s.man.Rules); err != nil {
			if s.wlog != nil {
				s.wlog.Close()
			}
			return nil, fmt.Errorf("server: refusing to start: %w", err)
		}
	}
	s.recoveryNanos = time.Since(recoverStart).Nanoseconds()
	if cfg.RuleEvalInterval > 0 {
		s.evalStop = make(chan struct{})
		s.evalDone = make(chan struct{})
		go s.evalLoop(cfg.RuleEvalInterval)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/add", s.handleAdd)
	s.mux.HandleFunc("GET /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("PUT /v1/rules", s.handleRulePut)
	s.mux.HandleFunc("GET /v1/rules", s.handleRuleList)
	s.mux.HandleFunc("GET /v1/rules/{id}", s.handleRuleGet)
	s.mux.HandleFunc("DELETE /v1/rules/{id}", s.handleRuleDelete)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /v1/alerts/stream", s.handleAlertStream)
	s.mux.HandleFunc("POST /v1/merge", s.handleMerge)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Store returns the underlying keyed store — for in-process composition
// (benchmarks, embedding the service next to local ingest).
func (s *Server) Store() *sbitmap.Store[string] { return s.store }

// Rules returns the standing-query engine — for in-process composition
// (benches install rules and drive Tick deterministically instead of
// waiting on the eval timer).
func (s *Server) Rules() *rules.Engine { return s.rules }

// evalLoop ticks the rules engine every interval until Close.
func (s *Server) evalLoop(interval time.Duration) {
	defer close(s.evalDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.rules.Tick(now)
		case <-s.evalStop:
			return
		}
	}
}

// RestoredKeys reports how many keys the start-time checkpoint restore
// brought back (0 when starting fresh).
func (s *Server) RestoredKeys() int { return s.restoredKeys }

// ReplayedRecords reports how many WAL records the start-time recovery
// replayed on top of the restored checkpoint.
func (s *Server) ReplayedRecords() int { return s.replayedRecords }

// Close stops the rule-evaluation loop and releases the server's durable
// resources (the WAL's open segment). Call after the HTTP listener has
// drained. Idempotent.
func (s *Server) Close() error {
	if s.evalStop != nil {
		s.evalOnce.Do(func() { close(s.evalStop) })
		<-s.evalDone
	}
	if s.wlog == nil {
		return nil
	}
	return s.wlog.Close()
}

// MaxBodyBytes reports the configured ingest size limit, so alternative
// transports (the TCP frame listener) enforce the same bound HTTP does.
func (s *Server) MaxBodyBytes() int64 { return s.cfg.MaxBodyBytes }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Error codes carried by the typed error payload. Stable: clients switch
// on these, not on messages.
const (
	CodeBadRequest      = "bad_request"
	CodeBadNDJSON       = "bad_ndjson"
	CodeBadFrame        = "bad_frame"
	CodeBadSnapshot     = "bad_snapshot"
	CodeMissingKey      = "missing_key"
	CodeUnknownKey      = "unknown_key"
	CodeBadWindow       = "bad_window"
	CodeWindowNotConf   = "window_not_configured"
	CodeTooLarge        = "payload_too_large"
	CodeSpecMismatch    = "spec_mismatch"
	CodeNotMergeable    = "not_mergeable"
	CodeNoCheckpoint    = "no_checkpoint_path"
	CodeCheckpointWrite = "checkpoint_write"
	CodeWALWrite        = "wal_write"
	CodeDurabilityLag   = "durability_lag"
	CodeBadRule         = "bad_rule"
	CodeUnknownRule     = "unknown_rule"
)

// errorBody is the wire form of every non-2xx response.
type errorBody struct {
	Error APIError `json:"error"`
}

// APIError is the typed error payload of the service; the client library
// returns it (with the HTTP status attached) for any non-2xx response.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (%d %s)", e.Message, e.Status, e.Code)
}

// AddResult reports one /v1/add call: records ingested and how many
// changed counter state (the Store's changed count).
type AddResult struct {
	Records int `json:"records"`
	Changed int `json:"changed"`
}

// EstimateResult is the /v1/estimate response. The window fields are
// present only for ?window= queries against a windowed store.
type EstimateResult struct {
	Key      string  `json:"key"`
	Estimate float64 `json:"estimate"`

	// Window echoes the requested trailing span; Windows is how many
	// live sub-window sketches contributed. WindowStartUnixNano /
	// WindowEndUnixNano bound the covered interval [start, end) on the
	// unix epoch timeline, anchored at the store's watermark (queries
	// never consult the wall clock). Tumbling marks the non-mergeable
	// fallback: the estimate is the last complete sub-window's,
	// regardless of the requested span.
	Window              string `json:"window,omitempty"`
	Windows             int    `json:"windows,omitempty"`
	WindowStartUnixNano int64  `json:"window_start_unix_nano,omitempty"`
	WindowEndUnixNano   int64  `json:"window_end_unix_nano,omitempty"`
	Tumbling            bool   `json:"tumbling,omitempty"`
}

// MultiEstimateResult answers a /v1/estimate with repeated key=
// parameters: one entry per requested key, in request order. The call is
// 200 even when some (or all) keys are unknown — existence is per-key
// data, carried by OK.
type MultiEstimateResult struct {
	Results []MultiEstimateEntry `json:"results"`
}

// MultiEstimateEntry is one key's answer in a batched estimate. OK is
// false (and Estimate 0) for a key the store has never seen or has
// evicted.
type MultiEstimateEntry struct {
	Key      string  `json:"key"`
	OK       bool    `json:"ok"`
	Estimate float64 `json:"estimate"`
}

// Entry is one /v1/topk ranking entry.
type Entry struct {
	Key      string  `json:"key"`
	Estimate float64 `json:"estimate"`
}

// TopKResult is the /v1/topk response.
type TopKResult struct {
	Top []Entry `json:"top"`
}

// MergeResult reports one /v1/merge call.
type MergeResult struct {
	// KeysMerged is the peer snapshot's key count (every one united into
	// this store).
	KeysMerged int `json:"keys_merged"`
}

// CheckpointInfo reports one durable snapshot write. Bytes counts the
// stripe snapshot data written by THIS pass — for an incremental
// checkpoint that is the dirty stripes only, so it scales with the write
// rate since the previous pass, not with the key population.
type CheckpointInfo struct {
	Path           string  `json:"path"`
	Bytes          int     `json:"bytes"`
	Keys           int     `json:"keys"`
	Seconds        float64 `json:"seconds"`
	StripesWritten int     `json:"stripes_written"`
	Incremental    bool    `json:"incremental"`
}

// WindowStats is the /v1/stats window block, present when the store's
// spec carries a windowed(...) modifier.
type WindowStats struct {
	// Width and Ring echo the spec modifier; RetentionSeconds is their
	// product — the widest ?window= span the store can answer.
	Width            string  `json:"width"`
	Ring             int     `json:"ring"`
	RetentionSeconds float64 `json:"retention_seconds"`
	// Watermark is the newest sub-window index any record has reached
	// (the watermark window starts at watermark × width on the unix
	// epoch timeline); absent before the first record.
	Watermark *int64 `json:"watermark,omitempty"`
	// LateRecords counts records that arrived more than ring
	// sub-windows behind the watermark and were folded into the
	// watermark window. Process-lifetime, monotone.
	LateRecords int64 `json:"late_records"`
}

// Stats is the /v1/stats response: store totals plus live service
// counters. All counters are monotone since process start.
type Stats struct {
	Spec           string       `json:"spec"`
	Keys           int          `json:"keys"`
	SizeBits       int          `json:"size_bits"`
	FootprintBytes int          `json:"footprint_bytes"`
	UptimeSeconds  float64      `json:"uptime_seconds"`
	RestoredKeys   int          `json:"restored_keys"`
	Window         *WindowStats `json:"window,omitempty"`
	Rules          *rules.Stats `json:"rules,omitempty"`

	AddRequests   int64 `json:"add_requests"`
	Records       int64 `json:"records"`
	Changed       int64 `json:"changed"`
	Queries       int64 `json:"queries"`
	MergeCalls    int64 `json:"merge_calls"`
	MergedKeys    int64 `json:"merged_keys"`
	Checkpoints   int64 `json:"checkpoints"`
	LastCkUnix    int64 `json:"last_checkpoint_unix,omitempty"`
	LastCkBytes   int64 `json:"last_checkpoint_bytes,omitempty"`
	LastCkMillis  int64 `json:"last_checkpoint_millis,omitempty"`
	LastCkStripes int64 `json:"last_checkpoint_stripes,omitempty"`

	// Durability: how far the node's acked state is from stable storage.
	// DurabilityLagSeconds is the age of the oldest acked mutation not yet
	// durable (0 when everything acked is on disk);
	// WALPendingReplayBytes is how much log a crash right now would
	// replay on restart.
	DurabilityLagSeconds  float64 `json:"durability_lag_seconds"`
	WALPendingReplayBytes int64   `json:"wal_pending_replay_bytes"`
	WALSegments           int     `json:"wal_segments,omitempty"`
	WALBytes              int64   `json:"wal_bytes,omitempty"`
	ReplayedRecords       int     `json:"replayed_records,omitempty"`
	RecoveryMillis        int64   `json:"recovery_millis,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) // headers are flushed; an encode error has nowhere to go
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: APIError{
		Status:  status,
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// bodyReadError maps a request-body read failure onto its typed response:
// the MaxBytesReader limit is the client's fault (413), anything else is
// a plain bad request (the connection died mid-body, or the chunking was
// malformed).
func bodyReadError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"request body exceeds %d bytes", maxErr.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
}

// ingestScratch is the pooled per-request state of the ingest path: the
// body buffer, the decode-in-place frame, and the NDJSON record slices.
// Pooling it makes a warm /v1/add frame request allocation-free through
// read, decode, and batch add; its address doubles as the affinity value
// sharding the metrics counters.
type ingestScratch struct {
	body  []byte
	frame Frame
	keys  []string
	items []string
	tss   []int64 // per-record NDJSON timestamps (unix nanos; 0 = none)
	wal   []byte  // NDJSON records re-encoded as a frame for the WAL
}

var ingestPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// ingestBodyKeep bounds the body capacity a pooled scratch retains; one
// oversized request must not pin tens of MiB in the pool forever.
const ingestBodyKeep = 1 << 20

// release drops every reference into request memory (the frame's
// strings and the NDJSON keys and items borrowed by decodeNDJSONLine
// alias sc.body) and returns the scratch to the pool.
// Slices are cleared through their full capacity: an error path may have
// appended past the length the caller last assigned.
func (sc *ingestScratch) release() {
	if cap(sc.body) > ingestBodyKeep {
		sc.body = nil
	} else {
		sc.body = sc.body[:0]
	}
	if cap(sc.wal) > ingestBodyKeep {
		sc.wal = nil
	} else {
		sc.wal = sc.wal[:0]
	}
	sc.frame.Release()
	clear(sc.keys[:cap(sc.keys)])
	clear(sc.items[:cap(sc.items)])
	sc.keys, sc.items, sc.tss = sc.keys[:0], sc.items[:0], sc.tss[:0]
	ingestPool.Put(sc)
}

// readAllInto reads r to EOF appending into buf's capacity, returning
// the filled slice — io.ReadAll with a caller-owned buffer, so a pooled
// scratch's body survives across requests.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// observeIngest hands an applied batch's keys to the rules engine's
// threshold hot path. Called after the ingest gate is released (the
// engine reads estimates back out of the store, and a rule evaluation
// must never extend the gate's critical section); the engine is
// synchronous and retains nothing, so keys may alias a transport buffer
// the caller reuses afterwards. Nil-safe for hand-rolled test servers.
func (s *Server) observeIngest(keys []string, affinity uintptr) {
	if s.rules == nil || len(keys) == 0 {
		return
	}
	s.rules.ObserveIngest(keys, time.Now(), affinity)
}

// applyFrame applies a decoded frame to the store. A version-2 frame's
// record timestamp goes to the Store as a value, so a windowed store
// files the records into its sub-window; an unstamped frame passes the
// zero time.Time, which the Store reads as no timestamp (time.Unix never
// returns it). Callers hold the ingest gate shared.
func (s *Server) applyFrame(f *Frame) AddResult {
	var ts time.Time
	if f.HasTS {
		ts = time.Unix(0, f.TSNanos)
	}
	res := AddResult{Records: f.Records()}
	if f.Items64 != nil {
		res.Changed = s.store.AddBatch64At(ts, f.Keys, f.Items64)
	} else {
		res.Changed = s.store.AddBatchStringAt(ts, f.Keys, f.ItemsString)
	}
	s.mutations.Add(1)
	return res
}

// IngestFrame ingests one encoded add frame durably: raw (exactly the
// bytes f was decoded from) is appended to the WAL before the store
// applies f, and both happen under the ingest gate, so an ack sent after
// IngestFrame returns means the frame is in the log ahead of any
// checkpoint cut — acked means replayable. With no WAL configured raw is
// ignored and f is applied under the gate alone. An error means the frame
// may not be durable; the transport must fail the request instead of
// acking. The frame may be borrowed (zero-copy): the store's batch
// methods hash items immediately and clone any key they retain, so the
// caller may reuse the backing buffer as soon as IngestFrame returns.
// Safe for concurrent use.
func (s *Server) IngestFrame(raw []byte, f *Frame) (AddResult, error) {
	res, err := s.ingestFrame(raw, f)
	if err != nil {
		return AddResult{}, err
	}
	s.observeIngest(f.Keys, uintptr(unsafe.Pointer(f)))
	return res, nil
}

// ingestFrame is IngestFrame without the rules hand-off: raw is appended
// to the WAL (when one is configured; raw is ignored otherwise) and f
// applied, both under the shared ingest gate.
func (s *Server) ingestFrame(raw []byte, f *Frame) (AddResult, error) {
	s.gate.RLock()
	if s.wlog != nil {
		if _, err := s.wlog.Append(walTagFrame, raw); err != nil {
			s.gate.RUnlock()
			return AddResult{}, fmt.Errorf("server: wal append: %w", err)
		}
		s.walPending.Add(walRecordBytes(len(raw)))
	}
	res := s.applyFrame(f)
	s.gate.RUnlock()
	return res, nil
}

// RecordIngest folds one ingest call into the live metrics: an add
// request, its record count, and its changed count. The TCP frame
// listener calls it once per frame so /v1/stats reflects wire ingest
// exactly as it does HTTP ingest. affinity shards the counters — pass a
// stable per-connection or per-request pointer value.
func (s *Server) RecordIngest(affinity uintptr, records, changed int) {
	s.addRequests.Add(affinity, 1)
	s.recordsTotal.Add(affinity, int64(records))
	s.changedTotal.Add(affinity, int64(changed))
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	sc := ingestPool.Get().(*ingestScratch)
	defer sc.release()
	aff := uintptr(unsafe.Pointer(sc))
	s.addRequests.Add(aff, 1)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// Read the whole body before parsing either format: a too-large body
	// must report 413, not a parse error on the line or record the limit
	// truncated.
	data, err := readAllInto(sc.body, body)
	sc.body = data
	if err != nil {
		bodyReadError(w, err)
		return
	}
	// Proxies may append parameters or re-case the media type; dispatch on
	// the parsed base type, not the raw header.
	mediaType := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(mediaType); err == nil {
		mediaType = mt
	}
	var res AddResult
	if mediaType == FrameContentType {
		if err := sc.frame.DecodeBorrowed(data); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadFrame, "%v", err)
			return
		}
		res, err = s.IngestFrame(data, &sc.frame)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeWALWrite, "%v", err)
			return
		}
	} else {
		keys, items, tss := sc.keys, sc.items, sc.tss
		// Lines are split in place over the pooled body, and a flat line's
		// key and item alias it (decodeNDJSONLine), as a frame's do: the
		// Store hashes items at once and copies any key it keeps, and the
		// rules engine keeps nothing. Any other line goes to encoding/json,
		// so its error texts are encoding/json's.
		for line, rest := 1, data; len(rest) > 0; line++ {
			raw := rest
			if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
				raw, rest = rest[:nl], rest[nl+1:]
			} else {
				rest = nil
			}
			if len(raw) > ndjsonMaxLine {
				writeError(w, http.StatusBadRequest, CodeBadNDJSON, "line %d: exceeds %d bytes", line, ndjsonMaxLine)
				return
			}
			raw = bytes.TrimSpace(raw)
			if len(raw) == 0 {
				continue
			}
			rec, ok := decodeNDJSONLine(raw)
			if !ok {
				// A variable of its own: taking rec's address would move
				// it, and every fast-path line with it, to the heap.
				var slow ndjsonRecord
				if err := json.Unmarshal(raw, &slow); err != nil {
					writeError(w, http.StatusBadRequest, CodeBadNDJSON, "line %d: %v", line, err)
					return
				}
				rec = slow
			}
			if rec.Key == "" {
				writeError(w, http.StatusBadRequest, CodeBadNDJSON, "line %d: missing key", line)
				return
			}
			keys = append(keys, rec.Key)
			items = append(items, rec.Item)
			tss = append(tss, rec.TS)
		}
		sc.keys, sc.items, sc.tss = keys, items, tss
		res.Records = len(keys)
		// A frame carries one timestamp, so ingest (and WAL-log) each
		// maximal run of same-ts records as its own frame; a body with no
		// ts is one run, and a body with no records logs nothing. Traces
		// arrive in time order, so the common case is one run per body.
		for start := 0; start < len(keys); {
			end := start + 1
			for end < len(keys) && tss[end] == tss[start] {
				end++
			}
			f := Frame{Keys: keys[start:end], ItemsString: items[start:end], TSNanos: tss[start], HasTS: tss[start] != 0}
			if s.wlog != nil {
				sc.wal = AppendFrame(sc.wal[:0], &f)
			}
			run, err := s.ingestFrame(sc.wal, &f)
			if err != nil {
				writeError(w, http.StatusInternalServerError, CodeWALWrite, "%v", err)
				return
			}
			res.Changed += run.Changed
			start = end
		}
		s.observeIngest(keys, aff)
	}
	s.recordsTotal.Add(aff, int64(res.Records))
	s.changedTotal.Add(aff, int64(res.Changed))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.queryRequests.Add(uintptr(unsafe.Pointer(r)), 1)
	q := r.URL.Query()
	keys := q["key"]
	if len(keys) > 1 {
		// Repeated key= parameters: one batched store pass, one response.
		// Per-key existence is data ("ok"), not an HTTP status — a miss in
		// a batch of 100 must not fail the other 99.
		if q.Get("window") != "" {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"window queries take a single key; drop ?window= or the extra key= parameters")
			return
		}
		ests := make([]float64, len(keys))
		oks := make([]bool, len(keys))
		s.store.EstimateBatch(keys, ests, oks)
		res := MultiEstimateResult{Results: make([]MultiEstimateEntry, len(keys))}
		for i := range keys {
			res.Results[i] = MultiEstimateEntry{Key: keys[i], OK: oks[i], Estimate: ests[i]}
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	key := q.Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, CodeMissingKey, "estimate needs a ?key= parameter")
		return
	}
	if raw := q.Get("window"); raw != "" {
		span, err := time.ParseDuration(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadWindow,
				"window=%q is not a duration (try 30s, 5m, 1h)", raw)
			return
		}
		we, ok, err := s.store.EstimateWindow(key, span)
		if err != nil {
			if errors.Is(err, sbitmap.ErrNotWindowed) {
				writeError(w, http.StatusBadRequest, CodeWindowNotConf,
					"this store has no windowed(...) spec modifier; start the server with a windowed spec to enable ?window= queries")
				return
			}
			// Remaining failures are span validation (ErrWindowSpan):
			// non-positive, or wider than the configured retention.
			writeError(w, http.StatusBadRequest, CodeBadWindow, "%v", err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, CodeUnknownKey, "key %q has never been seen (or was evicted)", key)
			return
		}
		writeJSON(w, http.StatusOK, EstimateResult{
			Key:                 key,
			Estimate:            we.Estimate,
			Window:              span.String(),
			Windows:             we.Windows,
			WindowStartUnixNano: we.Start.UnixNano(),
			WindowEndUnixNano:   we.End.UnixNano(),
			Tumbling:            we.Tumbling,
		})
		return
	}
	est, ok := s.store.Estimate(key)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownKey, "key %q has never been seen (or was evicted)", key)
		return
	}
	writeJSON(w, http.StatusOK, EstimateResult{Key: key, Estimate: est})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.queryRequests.Add(uintptr(unsafe.Pointer(r)), 1)
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "k=%q is not a positive integer", raw)
			return
		}
		k = v
	}
	ranked := s.store.TopK(k)
	res := TopKResult{Top: make([]Entry, len(ranked))}
	for i, ke := range ranked {
		res.Top[i] = Entry{Key: ke.Key, Estimate: ke.Estimate}
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Spec:           s.store.Spec().String(),
		Keys:           s.store.Len(),
		SizeBits:       s.store.SizeBits(),
		FootprintBytes: s.store.Footprint(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		RestoredKeys:   s.restoredKeys,
		AddRequests:    s.addRequests.Load(),
		Records:        s.recordsTotal.Load(),
		Changed:        s.changedTotal.Load(),
		Queries:        s.queryRequests.Load(),
		MergeCalls:     s.mergeRequests.Load(),
		MergedKeys:     s.mergedKeys.Load(),
		Checkpoints:    s.checkpoints.Load(),
		LastCkBytes:    s.lastCkBytes.Load(),
		LastCkMillis:   s.lastCkNanos.Load() / int64(time.Millisecond),
		LastCkStripes:  s.lastCkStripes.Load(),

		DurabilityLagSeconds:  s.durabilityLag(time.Now()),
		WALPendingReplayBytes: s.walPending.Load(),
		ReplayedRecords:       s.replayedRecords,
		RecoveryMillis:        s.recoveryNanos / int64(time.Millisecond),
	}
	if s.wlog != nil {
		ws := s.wlog.Stats()
		st.WALSegments = ws.Segments
		st.WALBytes = ws.Bytes
	}
	if ns := s.lastCkUnixNano.Load(); ns != 0 {
		st.LastCkUnix = ns / int64(time.Second)
	}
	rs := s.rules.Stats()
	st.Rules = &rs
	if wm, late, ok := s.store.WindowState(); ok {
		spec := s.store.Spec()
		ws := &WindowStats{
			Width:            spec.Window.String(),
			Ring:             spec.Ring,
			RetentionSeconds: spec.Retention().Seconds(),
			LateRecords:      late,
		}
		if wm != sbitmap.WindowWatermarkNone {
			ws.Watermark = &wm
		}
		st.Window = ws
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	s.mergeRequests.Add(1)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		bodyReadError(w, err)
		return
	}
	peer, spec, err := s.decodePeer(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSnapshot, "%v", err)
		return
	}
	if peer == nil {
		writeError(w, http.StatusConflict, CodeSpecMismatch,
			"peer snapshot spec %s differs from this store's %s", spec, s.store.Spec())
		return
	}
	// Apply, then log. A merge can fail validation deep inside the store,
	// so the WAL record is written only for merges that actually mutated
	// state — otherwise replay would refuse on a record the live server
	// rejected. The gate spans both, so a checkpoint cut cannot fall
	// between apply and append; logging after applying is sound here
	// because Mergeable kinds union idempotently, unlike add frames.
	s.gate.RLock()
	if err := s.store.Merge(peer); err != nil {
		s.gate.RUnlock()
		if errors.Is(err, sbitmap.ErrNotMergeable) {
			writeError(w, http.StatusUnprocessableEntity, CodeNotMergeable, "%v", err)
			return
		}
		writeError(w, http.StatusConflict, CodeSpecMismatch, "%v", err)
		return
	}
	s.mutations.Add(1)
	if s.wlog != nil {
		if _, err := s.wlog.Append(walTagMerge, data); err != nil {
			s.gate.RUnlock()
			writeError(w, http.StatusInternalServerError, CodeWALWrite, "server: wal append: %v", err)
			return
		}
		s.walPending.Add(walRecordBytes(len(data)))
	}
	s.gate.RUnlock()
	s.mergedKeys.Add(int64(peer.Len()))
	writeJSON(w, http.StatusOK, MergeResult{KeysMerged: peer.Len()})
}

// decodePeer decodes a merge snapshot — a POST /v1/merge body or a WAL
// merge record — for this store. It reads the spec from the snapshot's
// header first, and refuses one that is not the store's before building
// anything: peer is nil and spec names it. The spec sizes what decoding
// allocates, and whoever sends the snapshot picks it.
func (s *Server) decodePeer(data []byte) (peer *sbitmap.Store[string], spec sbitmap.Spec, err error) {
	if spec, err = sbitmap.StoreSnapshotSpec(data); err != nil || spec != s.store.Spec() {
		return nil, spec, err
	}
	peer, err = sbitmap.UnmarshalStore[string](data)
	return peer, spec, err
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.Checkpoint()
	if err != nil {
		if errors.Is(err, ErrNoCheckpointPath) {
			writeError(w, http.StatusConflict, CodeNoCheckpoint,
				"server was started without a checkpoint path")
			return
		}
		writeError(w, http.StatusInternalServerError, CodeCheckpointWrite, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// HealthResult is the GET /v1/healthz response: enough for a prober to
// confirm the node is alive AND is the node it expects (same spec), at a
// cost independent of the store size — plus the durability figures a
// load balancer needs to drain a node whose acked data is drifting away
// from stable storage. While WAL appends fail (wal_write), or when
// Config.MaxDurabilityLag is exceeded (durability_lag), Status is
// "degraded", Error carries the typed cause, and the endpoint serves the
// same body with a 503 — so the response parses both as a HealthResult
// and as the standard {"error":{...}} envelope.
type HealthResult struct {
	Status               string    `json:"status"`
	Spec                 string    `json:"spec"`
	Role                 string    `json:"role"`
	UptimeSeconds        float64   `json:"uptime_seconds"`
	DurabilityLagSeconds float64   `json:"durability_lag_seconds"`
	WALPendingBytes      int64     `json:"wal_pending_replay_bytes"`
	Error                *APIError `json:"error,omitempty"`
}

// Health reports the node's liveness summary (what GET /v1/healthz
// serves) — exported so in-process composition can skip the HTTP hop.
func (s *Server) Health() HealthResult {
	lag := s.durabilityLag(time.Now())
	h := HealthResult{
		Status:               "ok",
		Spec:                 s.store.Spec().String(),
		Role:                 s.ClusterInfo().Role,
		UptimeSeconds:        time.Since(s.start).Seconds(),
		DurabilityLagSeconds: lag,
		WALPendingBytes:      s.walPending.Load(),
	}
	if s.wlog != nil {
		if err := s.wlog.Stats().Err; err != nil {
			h.Status = "degraded"
			h.Error = &APIError{
				Status:  http.StatusServiceUnavailable,
				Code:    CodeWALWrite,
				Message: fmt.Sprintf("WAL appends are failing, so ingest is refused: %v", err),
			}
			return h
		}
	}
	if max := s.cfg.MaxDurabilityLag; max > 0 && lag > max.Seconds() {
		h.Status = "degraded"
		h.Error = &APIError{
			Status: http.StatusServiceUnavailable,
			Code:   CodeDurabilityLag,
			Message: fmt.Sprintf("durability lag %.3fs exceeds the configured maximum %.3fs (acked data is not reaching stable storage)",
				lag, max.Seconds()),
		}
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Error != nil {
		status = h.Error.Status
	}
	writeJSON(w, status, h)
}

// ClusterInfo returns the configured topology with the role defaulted,
// so callers and /v1/cluster always see a concrete role string.
func (s *Server) ClusterInfo() ClusterInfo {
	info := s.cfg.Cluster
	if info.Role == "" {
		info.Role = RoleStandalone
	}
	return info
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterInfo())
}

// ErrNoCheckpointPath reports a Checkpoint call on a server configured
// without Config.CheckpointDir.
var ErrNoCheckpointPath = errors.New("server: no checkpoint directory configured")
