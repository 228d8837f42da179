package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// Default per-peer retry policy: a dead TCP connection or a mid-restart
// peer gets two more tries before the cluster client declares the peer
// unreachable and degrades the response.
const (
	DefaultRetries   = 2
	DefaultRetryBase = 100 * time.Millisecond
)

// Client is the cluster-aware face of the counting service: one logical
// Store spread over a ring of sketchd peers. Ingest partitions by key
// owner, point reads route to the owner, and aggregate reads
// scatter-gather. Safe for concurrent use.
type Client struct {
	ring  *Ring
	peers []*server.Client
	// wire[i], when non-nil, carries peer i's ingest over its raw TCP
	// frame listener instead of HTTP (see WithWireIngest). Queries always
	// go over HTTP.
	wire []*wirePeer
}

type options struct {
	retries   int
	retryBase time.Duration
	wireAddrs map[string]string
}

// Option configures a cluster Client.
type Option func(*options)

// WithRetry overrides the per-peer retry policy (see server.WithRetry);
// WithRetry(0, 0) disables retries.
func WithRetry(retries int, base time.Duration) Option {
	return func(o *options) { o.retries, o.retryBase = retries, base }
}

// WithWireIngest maps peer base URLs to their raw TCP frame listener
// addresses (sketchd -tcp-addr). Ingest to a mapped peer goes over a
// long-lived wire connection (length-prefixed SBF1 frames, per-frame
// acks) instead of POST /v1/add; queries and unmapped peers stay on
// HTTP. The counting semantics are identical — the wire listener feeds
// the same store bit-identically — only the transport changes.
func WithWireIngest(addrs map[string]string) Option {
	return func(o *options) { o.wireAddrs = addrs }
}

// wirePeer serializes one peer's wire connection: wire.Client is
// single-producer by design (ordered acks), while cluster.Client is
// documented safe for concurrent use.
type wirePeer struct {
	mu sync.Mutex
	c  *wire.Client
}

// add sends one sub-frame synchronously, retrying once through the
// client's auto-redial — parity with the HTTP path's transient-failure
// retry.
func (w *wirePeer) add(f *server.Frame) (server.AddResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, err := w.c.AddFrame(f)
	if err != nil {
		ch, err = w.c.AddFrame(f)
	}
	if err != nil {
		return server.AddResult{}, err
	}
	return server.AddResult{Records: f.Records(), Changed: ch}, nil
}

// New builds a cluster client over the given peer base URLs — the
// cluster's partition set, the same list every node was started with.
func New(peers []string, opts ...Option) (*Client, error) {
	o := options{retries: DefaultRetries, retryBase: DefaultRetryBase}
	for _, opt := range opts {
		opt(&o)
	}
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ring:  ring,
		peers: make([]*server.Client, len(peers)),
		wire:  make([]*wirePeer, len(peers)),
	}
	for i, p := range peers {
		c.peers[i] = server.NewClient(p, server.WithRetry(o.retries, o.retryBase))
		if addr, ok := o.wireAddrs[p]; ok {
			c.wire[i] = &wirePeer{c: wire.NewClient(addr)}
		}
	}
	return c, nil
}

// Close releases any long-lived wire ingest connections (a no-op for a
// pure-HTTP client). The client remains usable; wire connections redial
// on the next ingest.
func (c *Client) Close() error {
	var first error
	for _, wp := range c.wire {
		if wp == nil {
			continue
		}
		wp.mu.Lock()
		if err := wp.c.Close(); err != nil && first == nil {
			first = err
		}
		wp.mu.Unlock()
	}
	return first
}

// Owner returns the base URL of the peer owning key.
func (c *Client) Owner(key string) string { return c.ring.OwnerPeer(key) }

// PeerError reports a failure talking to one peer; Unwrap exposes the
// underlying transport or API error.
type PeerError struct {
	Peer string
	Err  error
}

func (e *PeerError) Error() string { return fmt.Sprintf("cluster: peer %s: %v", e.Peer, e.Err) }
func (e *PeerError) Unwrap() error { return e.Err }

// Degraded marks a scatter-gather response assembled without every peer:
// Partial is true and Unreachable lists the peers whose answers are
// missing. A degraded response is an answer, not an error — the caller
// decides whether partial coverage is acceptable.
type Degraded struct {
	Partial     bool     `json:"partial"`
	Unreachable []string `json:"unreachable,omitempty"`
}

// degrade records one unreachable peer.
func (d *Degraded) degrade(peer string) {
	d.Partial = true
	d.Unreachable = append(d.Unreachable, peer)
}

// AddResult aggregates a partitioned ingest: Records/Changed sum over
// the peers that accepted their sub-frame; Dropped counts the records
// whose owner was unreachable (after retries) and which therefore were
// NOT ingested anywhere — partitioned placement means no other node may
// take them without breaking single-owner semantics.
type AddResult struct {
	server.AddResult
	Dropped int `json:"dropped,omitempty"`
	Degraded
}

// TopKResult is a scatter-gathered ranking.
type TopKResult struct {
	Top []server.Entry `json:"top"`
	Degraded
}

// PeerStats pairs one peer's /v1/stats answer with its base URL.
type PeerStats struct {
	Peer string `json:"peer"`
	server.Stats
}

// StatsResult aggregates /v1/stats over the ring: cluster-wide totals
// plus each reachable peer's own numbers.
type StatsResult struct {
	Keys           int   `json:"keys"`
	SizeBits       int   `json:"size_bits"`
	FootprintBytes int   `json:"footprint_bytes"`
	Records        int64 `json:"records"`
	Changed        int64 `json:"changed"`
	Peers          []PeerStats
	Degraded
}

// PeerHealth is one peer's probe outcome.
type PeerHealth struct {
	Peer string `json:"peer"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
	server.HealthResult
}

// scatter runs fn once per peer concurrently and waits for all of them.
func (c *Client) scatter(fn func(i int, pc *server.Client)) {
	var wg sync.WaitGroup
	for i, pc := range c.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, pc)
		}()
	}
	wg.Wait()
}

// unreachable reports whether a per-peer failure means "peer down"
// (degrade the response) as opposed to "request wrong" (propagate). A
// typed APIError or a wire frame rejection is an answer from a live
// peer; anything else — refused connection, reset, timeout — is
// unreachability.
func unreachable(err error) bool {
	var apiErr *server.APIError
	return !errors.As(err, &apiErr) && !errors.Is(err, wire.ErrFrameRejected)
}

// AddFrame partitions f's records by ring owner and ships each peer its
// sub-frame concurrently; every sub-frame keeps f's item type and
// timestamp. Peers that stay unreachable after retries degrade the
// result (Dropped, Partial, Unreachable) rather than failing the whole
// batch; a live peer that refuses its sub-frame fails the call. Panics
// if f's keys and items differ in length.
func (c *Client) AddFrame(ctx context.Context, f *server.Frame) (AddResult, error) {
	items := len(f.Items64)
	if f.ItemsString != nil {
		items = len(f.ItemsString)
	}
	if len(f.Keys) != items {
		panic(fmt.Sprintf("cluster: AddFrame with %d keys and %d items", len(f.Keys), items))
	}
	parts := c.ring.Partition(f.Keys)
	var (
		mu  sync.Mutex
		res AddResult
		hce error
	)
	c.scatter(func(i int, pc *server.Client) {
		idx := parts[i]
		if len(idx) == 0 {
			return
		}
		sub := server.Frame{
			Keys:        gather(f.Keys, idx),
			Items64:     gather(f.Items64, idx),
			ItemsString: gather(f.ItemsString, idx),
			TSNanos:     f.TSNanos,
			HasTS:       f.HasTS,
		}
		var r server.AddResult
		var err error
		if wp := c.wire[i]; wp != nil {
			r, err = wp.add(&sub)
		} else {
			r, err = pc.AddFrame(ctx, &sub)
		}
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			res.Records += r.Records
			res.Changed += r.Changed
			return
		}
		if unreachable(err) {
			res.Dropped += len(idx)
			res.degrade(c.ring.peers[i])
			return
		}
		if hce == nil {
			hce = &PeerError{Peer: c.ring.peers[i], Err: err}
		}
	})
	if hce != nil {
		return AddResult{}, hce
	}
	sort.Strings(res.Unreachable)
	return res, nil
}

// gather returns s[idx[0]], s[idx[1]], ... in a new slice; nil for a nil s.
func gather[T any](s []T, idx []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(idx))
	for j, ix := range idx {
		out[j] = s[ix]
	}
	return out
}

// Estimate routes the point read to the key's owner — partitioned
// placement means exactly one peer can know the key, so there is nothing
// to scatter. ok mirrors the single-node client (false, nil error for a
// never-seen key); an unreachable owner is a *PeerError (a point read
// has no partial answer to degrade to).
func (c *Client) Estimate(ctx context.Context, key string) (estimate float64, ok bool, err error) {
	owner := c.ring.Owner(key)
	estimate, ok, err = c.peers[owner].Estimate(ctx, key)
	if err != nil && unreachable(err) {
		err = &PeerError{Peer: c.ring.peers[owner], Err: err}
	}
	return estimate, ok, err
}

// TopK scatter-gathers each peer's top k and k-way merges the per-peer
// rankings (descending estimate, ties by ascending key — the Store's own
// order) into the cluster-wide top k. Each key lives on one owner, so
// per-peer rankings are disjoint and the merge of per-peer top-k lists
// provably contains the global top k; duplicate keys (possible only on
// an aggregator queried as a partition peer) keep their largest
// estimate. Unreachable peers degrade the result.
func (c *Client) TopK(ctx context.Context, k int) (TopKResult, error) {
	if k <= 0 {
		return TopKResult{}, nil
	}
	lists := make([][]server.Entry, len(c.peers))
	errs := make([]error, len(c.peers))
	c.scatter(func(i int, pc *server.Client) {
		lists[i], errs[i] = pc.TopK(ctx, k)
	})
	var res TopKResult
	for i, err := range errs {
		if err == nil {
			continue
		}
		if unreachable(err) {
			res.degrade(c.ring.peers[i])
			lists[i] = nil
			continue
		}
		return TopKResult{}, &PeerError{Peer: c.ring.peers[i], Err: err}
	}
	sort.Strings(res.Unreachable)
	res.Top = mergeTopK(lists, k)
	return res, nil
}

// mergeTopK k-way merges per-peer rankings already sorted by (estimate
// desc, key asc) and returns the first k distinct keys in that same
// global order.
func mergeTopK(lists [][]server.Entry, k int) []server.Entry {
	heads := make([]int, len(lists))
	better := func(a, b server.Entry) bool {
		return a.Estimate > b.Estimate || (a.Estimate == b.Estimate && a.Key < b.Key)
	}
	var out []server.Entry
	seen := make(map[string]bool)
	for len(out) < k {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best == -1 || better(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		e := lists[best][heads[best]]
		heads[best]++
		if seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		out = append(out, e)
	}
	return out
}

// Stats scatter-gathers /v1/stats and sums the store totals; per-peer
// numbers ride along. Unreachable peers degrade the result.
func (c *Client) Stats(ctx context.Context) (StatsResult, error) {
	stats := make([]server.Stats, len(c.peers))
	errs := make([]error, len(c.peers))
	c.scatter(func(i int, pc *server.Client) {
		stats[i], errs[i] = pc.Stats(ctx)
	})
	var res StatsResult
	for i, err := range errs {
		if err != nil {
			if unreachable(err) {
				res.degrade(c.ring.peers[i])
				continue
			}
			return StatsResult{}, &PeerError{Peer: c.ring.peers[i], Err: err}
		}
		st := stats[i]
		res.Keys += st.Keys
		res.SizeBits += st.SizeBits
		res.FootprintBytes += st.FootprintBytes
		res.Records += st.Records
		res.Changed += st.Changed
		res.Peers = append(res.Peers, PeerStats{Peer: c.ring.peers[i], Stats: st})
	}
	sort.Strings(res.Unreachable)
	return res, nil
}

// Health probes every peer's /v1/healthz concurrently — the cluster
// prober. A peer's failure is reported in its row, never as an error
// (probing unreachable peers is the point).
func (c *Client) Health(ctx context.Context) []PeerHealth {
	out := make([]PeerHealth, len(c.peers))
	c.scatter(func(i int, pc *server.Client) {
		out[i].Peer = c.ring.peers[i]
		h, err := pc.Health(ctx)
		if err != nil {
			out[i].Err = err.Error()
			return
		}
		out[i].OK = true
		out[i].HealthResult = h
	})
	return out
}
