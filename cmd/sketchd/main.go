// Command sketchd serves a keyed Store over HTTP — the module's network
// counting service. One Spec dimensions every per-key counter; producers
// POST batched records (NDJSON or the compact binary frame), consumers
// query estimates, top-k, and live stats, and peers ship whole-store
// snapshots for key-wise merge.
//
// Usage:
//
//	sketchd -spec "sbitmap:n=1e6,eps=0.01" -addr :8287
//	sketchd -spec "hll:mbits=4096" -checkpoint /var/lib/sketchd/ckpt \
//	        -checkpoint-interval 30s -maxkeys 2000000
//	sketchd -checkpoint /var/lib/sketchd/ckpt -wal-dir /var/lib/sketchd/wal \
//	        -fsync interval -max-durability-lag 5s
//	sketchd -addr :8287 -tcp-addr :8288          # raw TCP frame ingest
//	sketchd -addr :8287 -pprof-addr 127.0.0.1:6060
//	sketchd -spec "hll:mbits=4096" -window 1m -ring 5   # sliding windows
//
// With -window (and optionally -ring), the spec gains the
// windowed(width=...,ring=...) modifier: every key keeps a ring of
// per-sub-window sketches, ingest may carry record timestamps (frame v2,
// or an NDJSON "ts" field), and GET /v1/estimate?key=K&window=5m answers
// over the trailing span by merging the covering sub-windows (mergeable
// kinds) or reporting the last complete sub-window (S-bitmap, marked
// tumbling). Equivalent to writing the modifier into -spec directly.
//
// With -tcp-addr, the same binary add frames POST /v1/add accepts are
// also ingested over raw TCP (length-prefixed, acked per frame — see
// internal/wire), skipping HTTP entirely on the hot path. With
// -pprof-addr, net/http/pprof is served on its own listener (keep it on
// loopback).
//
// With -checkpoint, the named directory holds incremental snapshots —
// per-stripe files under a manifest, only the stripes dirtied since the
// previous pass rewritten — restored on start and written on the
// interval, on POST /v1/checkpoint, and on SIGTERM/SIGINT. With
// -wal-dir, every ingest mutation is additionally appended to a
// write-ahead log before its ack (-fsync picks the always/interval/never
// durability point) and the log tail is replayed on top of the restored
// checkpoint — so a crashed-and-restarted server resumes with exactly
// the records it acked, not just the last checkpoint.
//
// Standing queries (see internal/rules): PUT /v1/rules installs a
// continuous detection query — a single-key threshold watch, a
// prefix/any-key superspreader scan, or a top-k movers ranking — and the
// server evaluates it every -rule-interval against only the stripes
// dirtied since the previous pass (threshold rules additionally fire
// within the ingest call that crossed them). Alerts accumulate in a ring
// (GET /v1/alerts, sized by -alert-ring) and stream live over SSE
// (GET /v1/alerts/stream). With -checkpoint, installed rules, firing
// state, and alert history survive restarts via the manifest.
//
// Cluster mode (see internal/cluster): N sketchd processes become one
// logical service. Start every node with the same -spec (seed included)
// and the same -peers list; clients (cluster.Client) partition ingest
// by consistent-hash key owner and scatter-gather queries. An edge node
// additionally pushes its whole store into a central aggregator on a
// timer:
//
//	sketchd -addr :8287 -spec "sbitmap:n=1e4,eps=0.1,seed=7" \
//	        -peers http://n1:8287,http://n2:8287,http://n3:8287
//	sketchd -role edge -aggregator http://agg:8287 -push-interval 30s ...
//	sketchd -role aggregator -addr :8287 ...
//
// Endpoints (see internal/server):
//
//	POST /v1/add         NDJSON {"key":...,"item":...} lines, or a binary
//	                     add frame (Content-Type application/x-sbitmap-frame)
//	GET  /v1/estimate    ?key=K [&window=5m]; repeat key= for a batch
//	GET  /v1/topk        ?k=N
//	GET  /v1/stats       totals + live metrics
//	PUT  /v1/rules       install a standing query (threshold/prefix/movers)
//	GET  /v1/rules       list rules; /v1/rules/{id} reads, DELETE removes
//	GET  /v1/alerts      ?limit=N — alert history, newest first
//	GET  /v1/alerts/stream  live alerts (Server-Sent Events, ?replay=N)
//	POST /v1/merge       Store snapshot envelope from a peer
//	POST /v1/checkpoint  write a durable snapshot now
//	GET  /v1/healthz     liveness + spec + role + uptime (JSON)
//	GET  /v1/cluster     this node's topology (role, peers, aggregator)
//	GET  /healthz        plain-text liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sbitmap "repro"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// config is the parsed flag set; split from serving so flag/spec errors
// are testable without binding a socket.
type config struct {
	addr         string
	tcpAddr      string
	pprofAddr    string
	server       server.Config
	interval     time.Duration
	pushInterval time.Duration
}

// parseFlags resolves the CLI vocabulary into a server.Config.
func parseFlags(args []string, stderr *os.File) (config, error) {
	fs := flag.NewFlagSet("sketchd", flag.ContinueOnError)
	if stderr != nil {
		fs.SetOutput(stderr)
	}
	var (
		specStr  = fs.String("spec", "sbitmap:n=1e6,eps=0.01", "per-key sketch spec (sbitmap.ParseSpec vocabulary)")
		addr     = fs.String("addr", "127.0.0.1:8287", "listen address (host:port; :0 picks a free port)")
		tcpAddr  = fs.String("tcp-addr", "", "raw TCP ingest listen address for length-prefixed add frames (empty = disabled)")
		pprofAdr = fs.String("pprof-addr", "", "net/http/pprof listen address (empty = disabled; never expose publicly)")
		ckDir    = fs.String("checkpoint", "", "checkpoint directory: manifest + per-stripe snapshots, restored on start, written periodically and on shutdown")
		interval = fs.Duration("checkpoint-interval", time.Minute, "periodic checkpoint interval (0 disables the timer; needs -checkpoint)")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory: every ingest is appended before its ack and replayed on restart (empty = disabled)")
		fsyncStr = fs.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
		fsyncInt = fs.Duration("fsync-interval", 0, "max age of unsynced WAL bytes under -fsync interval (0 = 100ms default)")
		walSeg   = fs.Int64("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = 64 MiB default)")
		maxLag   = fs.Duration("max-durability-lag", 0, "degrade /v1/healthz to 503 when acked-but-not-durable data is older than this (0 = never)")
		ruleIntv = fs.Duration("rule-interval", time.Second, "standing-query evaluation interval: how often installed rules rescan dirtied stripes (0 disables the timer; threshold rules still fire on ingest)")
		alertRng = fs.Int("alert-ring", 0, "alert history ring capacity served by GET /v1/alerts (0 = 1024 default)")
		window   = fs.Duration("window", 0, "sub-window width for sliding-window counting (adds windowed(width=...) to the spec; 0 = disabled)")
		ring     = fs.Int("ring", 0, "sub-windows retained per key (needs -window; 0 = library default of 5)")
		maxKeys  = fs.Int("maxkeys", 0, "bound live keys, evicting arbitrary keys at the limit (0 = unbounded)")
		stripes  = fs.Int("stripes", 0, "store lock-stripe count (0 = library default)")
		maxBody  = fs.Int64("max-body", 0, "request body limit in bytes (0 = 32 MiB default)")
		role     = fs.String("role", "", "cluster role: standalone (default), edge, or aggregator")
		peers    = fs.String("peers", "", "comma-separated base URLs of the cluster's partition peers (same list on every node and client)")
		aggrURL  = fs.String("aggregator", "", "aggregator base URL an edge node pushes snapshots to (requires -role edge)")
		pushIntv = fs.Duration("push-interval", 30*time.Second, "edge snapshot-push interval (requires -role edge)")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	spec, err := sbitmap.ParseSpec(*specStr)
	if err != nil {
		return config{}, err
	}
	if *window < 0 {
		return config{}, fmt.Errorf("-window %v is negative", *window)
	}
	if *ring < 0 {
		return config{}, fmt.Errorf("-ring %d is negative", *ring)
	}
	if *ring > 0 && *window == 0 && !spec.Windowed() {
		return config{}, fmt.Errorf("-ring needs -window (or a windowed(...) modifier in -spec)")
	}
	if *window > 0 || (*ring > 0 && spec.Windowed()) {
		if *window > 0 {
			if spec.Windowed() {
				return config{}, fmt.Errorf("-window conflicts with the windowed(...) modifier already in -spec %q; set the width in one place", *specStr)
			}
			spec.Window = *window
		}
		if *ring > 0 {
			// -ring sizes the ring whether the width came from -window or
			// from a windowed(...) modifier in -spec.
			spec.Ring = *ring
		}
		// Round-trip through ParseSpec so flag-built windowed specs get the
		// same validation (and ring default) as spec-string ones.
		spec, err = sbitmap.ParseSpec(spec.String())
		if err != nil {
			return config{}, fmt.Errorf("-window/-ring: %w", err)
		}
	}
	if *interval < 0 {
		return config{}, fmt.Errorf("-checkpoint-interval %v is negative", *interval)
	}
	policy, err := wal.ParsePolicy(*fsyncStr)
	if err != nil {
		return config{}, fmt.Errorf("-fsync: %w", err)
	}
	if *fsyncInt < 0 {
		return config{}, fmt.Errorf("-fsync-interval %v is negative", *fsyncInt)
	}
	if *walSeg < 0 {
		return config{}, fmt.Errorf("-wal-segment-bytes %d is negative", *walSeg)
	}
	if *maxLag < 0 {
		return config{}, fmt.Errorf("-max-durability-lag %v is negative", *maxLag)
	}
	if *ruleIntv < 0 {
		return config{}, fmt.Errorf("-rule-interval %v is negative", *ruleIntv)
	}
	if *alertRng < 0 {
		return config{}, fmt.Errorf("-alert-ring %d is negative", *alertRng)
	}
	switch *role {
	case "", server.RoleStandalone, server.RoleAggregator:
		if *aggrURL != "" {
			return config{}, fmt.Errorf("-aggregator needs -role edge (only edge nodes push snapshots)")
		}
	case server.RoleEdge:
		if *aggrURL == "" {
			return config{}, fmt.Errorf("-role edge needs -aggregator (where to push snapshots)")
		}
		if *pushIntv <= 0 {
			return config{}, fmt.Errorf("-push-interval %v must be positive", *pushIntv)
		}
	default:
		return config{}, fmt.Errorf("-role %q: want %s, %s, or %s",
			*role, server.RoleStandalone, server.RoleEdge, server.RoleAggregator)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 {
		// Fail on duplicate/empty peers now, not at first client routing.
		if _, err := cluster.NewRing(peerList); err != nil {
			return config{}, fmt.Errorf("-peers: %w", err)
		}
	}
	clusterInfo := server.ClusterInfo{Role: *role, Peers: peerList, Aggregator: *aggrURL}
	if *role == server.RoleEdge {
		clusterInfo.PushIntervalSeconds = pushIntv.Seconds()
	}
	return config{
		addr:      *addr,
		tcpAddr:   *tcpAddr,
		pprofAddr: *pprofAdr,
		server: server.Config{
			Spec:             spec,
			MaxKeys:          *maxKeys,
			Stripes:          *stripes,
			CheckpointDir:    *ckDir,
			WALDir:           *walDir,
			FsyncPolicy:      policy,
			FsyncInterval:    *fsyncInt,
			WALSegmentBytes:  *walSeg,
			MaxDurabilityLag: *maxLag,
			MaxBodyBytes:     *maxBody,
			RuleEvalInterval: *ruleIntv,
			AlertRing:        *alertRng,
			Cluster:          clusterInfo,
		},
		interval:     *interval,
		pushInterval: *pushIntv,
	}, nil
}

func run(args []string, stderr *os.File) int {
	logger := log.New(stderr, "sketchd: ", log.LstdFlags)
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		logger.Printf("%v", err)
		return 1
	}
	srv, err := server.New(cfg.server)
	if err != nil {
		logger.Printf("%v", err)
		return 1
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		logger.Printf("%v", err)
		return 1
	}
	logger.Printf("serving spec %s on http://%s", cfg.server.Spec, ln.Addr())
	if n := srv.RestoredKeys(); n > 0 {
		logger.Printf("restored %d keys from checkpoint %s", n, cfg.server.CheckpointDir)
	}
	if n := srv.ReplayedRecords(); n > 0 {
		logger.Printf("replayed %d WAL records from %s", n, cfg.server.WALDir)
	}

	// Raw TCP ingest: the same SBF1 frames as POST /v1/add, length-prefixed
	// on long-lived connections, acked per frame (see internal/wire).
	var wireSrv *wire.Server
	if cfg.tcpAddr != "" {
		wln, err := net.Listen("tcp", cfg.tcpAddr)
		if err != nil {
			logger.Printf("%v", err)
			return 1
		}
		wireSrv = wire.Serve(wln, srv)
		defer wireSrv.Close()
		logger.Printf("wire ingest on tcp://%s", wln.Addr())
	}

	// Opt-in profiling endpoint on its own listener, so enabling it never
	// widens the service's own API surface.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			logger.Printf("%v", err)
			return 1
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := newHTTPServer(pmux)
		go pprofSrv.Serve(pln)
		defer pprofSrv.Close()
		logger.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints, serialized against the shutdown checkpoint by
	// the server itself; one failed write is logged, not fatal (the next
	// tick retries, and the previous checkpoint is still intact).
	if cfg.server.CheckpointDir != "" && cfg.interval > 0 {
		go func() {
			tick := time.NewTicker(cfg.interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if info, err := srv.Checkpoint(); err != nil {
						logger.Printf("periodic checkpoint: %v", err)
					} else {
						logger.Printf("checkpoint: %d keys, %d bytes in %.0f ms",
							info.Keys, info.Bytes, info.Seconds*1e3)
					}
				}
			}
		}()
	}

	// Edge role: push whole-store snapshots into the aggregator on a
	// timer. A down aggregator costs log lines, never counting; the next
	// successful push heals the gap (snapshots are cumulative unions).
	var pusher *cluster.Pusher
	if cfg.server.Cluster.Role == server.RoleEdge {
		pusher = &cluster.Pusher{
			Source:   srv.Store().MarshalBinary,
			Target:   server.NewClient(cfg.server.Cluster.Aggregator, server.WithRetry(2, 500*time.Millisecond)),
			Interval: cfg.pushInterval,
			Logf:     logger.Printf,
		}
		go pusher.Run(ctx)
		logger.Printf("edge role: pushing snapshots to %s every %v", cfg.server.Cluster.Aggregator, cfg.pushInterval)
	}

	// Shutdown waits for running handlers, and an open alert stream runs
	// until its request context ends: cancel every request's context as
	// Shutdown starts.
	httpSrv := newHTTPServer(srv)
	baseCtx, cancelBase := context.WithCancel(context.Background())
	httpSrv.BaseContext = func(net.Listener) context.Context { return baseCtx }
	httpSrv.RegisterOnShutdown(cancelBase)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	logger.Printf("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if wireSrv != nil {
		// Close wire connections first so every fully received frame is in
		// the store before the shutdown checkpoint below snapshots it.
		if err := wireSrv.Close(); err != nil {
			logger.Printf("wire shutdown: %v", err)
		}
	}
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if pusher != nil {
		// Ship what we counted since the last tick; a failure is logged
		// (the aggregator may be down too), not fatal.
		if res, err := pusher.PushOnce(shCtx); err != nil {
			logger.Printf("final snapshot push: %v", err)
		} else {
			logger.Printf("final snapshot push: %d keys -> %s", res.KeysMerged, cfg.server.Cluster.Aggregator)
		}
	}
	if cfg.server.CheckpointDir != "" {
		info, err := srv.Checkpoint()
		if err != nil {
			logger.Printf("final checkpoint: %v", err)
			return 1
		}
		logger.Printf("final checkpoint: %d keys, %d bytes (%d stripes) -> %s",
			info.Keys, info.Bytes, info.StripesWritten, info.Path)
	}
	// Flush and close the WAL last: the final checkpoint above already
	// truncated what it covers, and Close syncs any tail appends.
	if err := srv.Close(); err != nil {
		logger.Printf("wal close: %v", err)
		return 1
	}
	return 0
}

// Slow-client limits of both HTTP servers: a request header must arrive
// within httpReadHeaderTimeout, and a keep-alive connection idle for
// httpIdleTimeout is closed, so a client that trickles a header or
// parks a connection cannot hold it, and its goroutine, forever. There
// is deliberately no write timeout: it would cut the /v1/alerts/stream
// event stream.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns an http.Server for h with the slow-client limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: httpReadHeaderTimeout, IdleTimeout: httpIdleTimeout}
}
