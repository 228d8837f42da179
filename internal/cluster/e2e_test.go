package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/xrand"
)

// node is one loopback sketchd: a real net listener (so the port — and
// thus the peer's ring identity — survives kill+restart) serving a real
// server.Server.
type node struct {
	t    *testing.T
	srv  *server.Server
	hs   *http.Server
	addr string
}

func startNode(t *testing.T, cfg server.Config) *node {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &node{t: t, srv: srv, addr: ln.Addr().String()}
	n.serve(ln)
	t.Cleanup(n.kill)
	return n
}

func (n *node) base() string { return "http://" + n.addr }

func (n *node) serve(ln net.Listener) {
	n.hs = &http.Server{Handler: n.srv}
	go n.hs.Serve(ln)
}

// kill drops the listener and every open connection — the peer is gone
// mid-cluster, as in a crash.
func (n *node) kill() { n.hs.Close() }

// restart re-binds the same address (same ring identity, same store —
// the in-process analogue of a checkpoint-restore restart).
func (n *node) restart() {
	n.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the dead listener's port may linger briefly
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("rebinding %s: %v", n.addr, err)
	}
	n.serve(ln)
	// The node must answer before the test proceeds.
	pc := server.NewClient(n.base())
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := pc.Healthz(context.Background()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			n.t.Fatalf("node %s never became healthy after restart", n.addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startCluster boots n partition peers sharing one spec and returns them
// with a cluster client (fast retry policy: tests kill peers on purpose).
func startCluster(t *testing.T, n int, spec sbitmap.Spec) ([]*node, *Client) {
	t.Helper()
	nodes := make([]*node, n)
	peers := make([]string, n)
	for i := range nodes {
		nodes[i] = startNode(t, server.Config{Spec: spec})
		peers[i] = nodes[i].base()
	}
	cl, err := New(peers, WithRetry(1, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return nodes, cl
}

// clusterWorkload builds a keyed record sequence with per-key spreads
// that differ across keys (so rankings are non-trivial) plus duplicates.
func clusterWorkload(nKeys, perKey int, seed uint64) (keys []string, items []uint64) {
	r := xrand.New(seed)
	for k := 0; k < nKeys; k++ {
		name := fmt.Sprintf("user-%05d", k)
		spread := 1 + k%29
		for i := 0; i < perKey; i++ {
			keys = append(keys, name)
			items = append(items, xrand.Mix64(uint64(k)<<20|uint64(i%spread)))
		}
	}
	// Shuffle records so every batch crosses all partitions.
	for i := len(keys) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
		items[i], items[j] = items[j], items[i]
	}
	return keys, items
}

// TestClusterEndToEnd is the subsystem's acceptance test: a real 3-node
// loopback cluster through the full cycle — partitioned ingest,
// scatter-gather queries bit-identical to a single local twin Store,
// peer kill ⇒ typed degraded (partial) responses instead of errors, and
// full recovery once the peer is back.
func TestClusterEndToEnd(t *testing.T) {
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=11")
	nKeys, perKey := 1<<12, 8
	if testing.Short() {
		nKeys, perKey = 1<<9, 4
	}
	nodes, cl := startCluster(t, 3, spec)
	ctx := context.Background()

	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}

	// Partitioned ingest, twin fed record-for-record identically.
	keys, items := clusterWorkload(nKeys, perKey, 0xc10c)
	const batch = 1024
	sent := 0
	for i := 0; i < len(keys); i += batch {
		end := min(i+batch, len(keys))
		res, err := cl.AddFrame(ctx, &server.Frame{Keys: keys[i:end], Items64: items[i:end]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial || res.Dropped != 0 {
			t.Fatalf("healthy-cluster ingest degraded: %+v", res.Degraded)
		}
		if res.Records != end-i {
			t.Fatalf("batch reported %d records, sent %d", res.Records, end-i)
		}
		twin.AddBatch64(keys[i:end], items[i:end])
		sent += end - i
	}

	// Every partition must actually hold keys (the ring spread the load).
	for i, n := range nodes {
		if n.srv.Store().Len() == 0 {
			t.Fatalf("node %d owns no keys", i)
		}
	}

	// Scatter-gather stats: per-node key counts must sum to the twin's.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial || stats.Keys != twin.Len() || stats.Records != int64(sent) {
		t.Fatalf("stats: keys=%d records=%d partial=%v, twin has %d keys / %d records",
			stats.Keys, stats.Records, stats.Partial, twin.Len(), sent)
	}

	// Every key: clustered estimate bit-identical to the local twin.
	mismatches := 0
	twin.ForEach(func(key string, c sbitmap.Counter) bool {
		got, ok, err := cl.Estimate(ctx, key)
		if err != nil {
			t.Fatalf("estimate %q: %v", key, err)
		}
		if !ok || got != c.Estimate() {
			mismatches++
		}
		return mismatches < 10
	})
	if mismatches > 0 {
		t.Fatalf("%d keys with clustered estimates differing from the twin", mismatches)
	}

	// Scatter-gather top-k: k-way merge equals the twin's ranking, in
	// order, across boundary ks.
	for _, k := range []int{1, 10, 100} {
		want := twin.TopK(k)
		got, err := cl.TopK(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Partial {
			t.Fatalf("topk(%d) partial on a healthy cluster", k)
		}
		if len(got.Top) != len(want) {
			t.Fatalf("topk(%d): %d entries, twin %d", k, len(got.Top), len(want))
		}
		for i := range want {
			if got.Top[i].Key != want[i].Key || got.Top[i].Estimate != want[i].Estimate {
				t.Fatalf("topk(%d)[%d]: got (%s, %v), twin (%s, %v)",
					k, i, got.Top[i].Key, got.Top[i].Estimate, want[i].Key, want[i].Estimate)
			}
		}
	}

	// All three peers healthy, same spec.
	for _, h := range cl.Health(ctx) {
		if !h.OK || h.Spec != spec.String() {
			t.Fatalf("health: %+v", h)
		}
	}

	// Kill one peer: scatter-gather queries must degrade (typed partial
	// response naming the dead peer), not fail.
	dead := nodes[1]
	dead.kill()
	deadKeys := dead.srv.Store().Len()

	got, err := cl.TopK(ctx, 50)
	if err != nil {
		t.Fatalf("topk with a dead peer must degrade, got error %v", err)
	}
	if !got.Partial || len(got.Unreachable) != 1 || got.Unreachable[0] != dead.base() {
		t.Fatalf("topk degraded response: %+v", got.Degraded)
	}
	for _, e := range got.Top { // surviving entries still bit-identical
		want, _ := twin.Estimate(e.Key)
		if cl.Owner(e.Key) == dead.base() || e.Estimate != want {
			t.Fatalf("degraded topk entry %+v (owner %s)", e, cl.Owner(e.Key))
		}
	}

	stats, err = cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partial || stats.Keys != twin.Len()-deadKeys || len(stats.Peers) != 2 {
		t.Fatalf("degraded stats: keys=%d partial=%v peers=%d (twin %d, dead node held %d)",
			stats.Keys, stats.Partial, len(stats.Peers), twin.Len(), deadKeys)
	}

	health := cl.Health(ctx)
	downs := 0
	for _, h := range health {
		if !h.OK {
			downs++
			if h.Peer != dead.base() {
				t.Fatalf("health blames %s, killed %s", h.Peer, dead.base())
			}
		}
	}
	if downs != 1 {
		t.Fatalf("health reports %d peers down, want 1: %+v", downs, health)
	}

	// A point read routed to the dead owner is a typed peer error; keys
	// owned by live peers keep answering.
	deadKey, liveKey := "", ""
	twin.ForEach(func(key string, _ sbitmap.Counter) bool {
		if cl.Owner(key) == dead.base() {
			deadKey = key
		} else {
			liveKey = key
		}
		return deadKey == "" || liveKey == ""
	})
	var perr *PeerError
	if _, _, err := cl.Estimate(ctx, deadKey); !errors.As(err, &perr) || perr.Peer != dead.base() {
		t.Fatalf("estimate(%q) with dead owner: %v", deadKey, err)
	}
	if est, ok, err := cl.Estimate(ctx, liveKey); err != nil || !ok {
		t.Fatalf("estimate(%q) with live owner: ok=%v err=%v", liveKey, ok, err)
	} else if want, _ := twin.Estimate(liveKey); est != want {
		t.Fatalf("estimate(%q) = %v, twin %v", liveKey, est, want)
	}

	// Ingest degrades too: the dead owner's records are reported dropped,
	// everyone else's land (and stay bit-identical to a twin fed only the
	// delivered records).
	deltaKeys := []string{deadKey, liveKey, deadKey, liveKey}
	deltaItems := []uint64{1, 2, 3, 4}
	addRes, err := cl.AddFrame(ctx, &server.Frame{Keys: deltaKeys, Items64: deltaItems})
	if err != nil {
		t.Fatal(err)
	}
	if !addRes.Partial || addRes.Dropped != 2 || addRes.Records != 2 {
		t.Fatalf("degraded ingest: %+v", addRes)
	}
	twin.AddBatch64([]string{liveKey, liveKey}, []uint64{2, 4})

	// Restart the peer on its old address: the ring identity is the
	// address, so the cluster heals with no client-side action.
	dead.restart()
	got, err = cl.TopK(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatalf("topk still partial after restart: %+v", got.Degraded)
	}
	want := twin.TopK(50)
	for i := range want {
		if got.Top[i].Key != want[i].Key || got.Top[i].Estimate != want[i].Estimate {
			t.Fatalf("post-restart topk[%d]: got (%s, %v), twin (%s, %v)",
				i, got.Top[i].Key, got.Top[i].Estimate, want[i].Key, want[i].Estimate)
		}
	}
	if est, ok, err := cl.Estimate(ctx, deadKey); err != nil || !ok {
		t.Fatalf("estimate(%q) after restart: ok=%v err=%v", deadKey, ok, err)
	} else if want, _ := twin.Estimate(deadKey); est != want {
		t.Fatalf("estimate(%q) = %v after restart, twin %v", deadKey, est, want)
	}
}

// TestAggregatorPush exercises the edge→aggregator half: two edge nodes
// counting disjoint-and-overlapping keys push snapshots into an
// aggregator whose central view must equal a twin fed every record —
// bit-identical, because snapshots share the spec's seed and merge is
// register-wise union.
func TestAggregatorPush(t *testing.T) {
	spec := sbitmap.MustSpec("hll:mbits=2048,seed=9")
	agg := startNode(t, server.Config{
		Spec:    spec,
		Cluster: server.ClusterInfo{Role: server.RoleAggregator},
	})
	edges := []*node{
		startNode(t, server.Config{Spec: spec, Cluster: server.ClusterInfo{Role: server.RoleEdge}}),
		startNode(t, server.Config{Spec: spec, Cluster: server.ClusterInfo{Role: server.RoleEdge}}),
	}
	ctx := context.Background()

	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	// Edge 0 sees links a,b; edge 1 sees links b,c — b is observed from
	// both vantage points with overlapping item sets, the paper's many-
	// monitors-one-flow case.
	feed := func(n *node, key string, lo, hi int) {
		keys := make([]string, 0, hi-lo)
		items := make([]uint64, 0, hi-lo)
		for v := lo; v < hi; v++ {
			keys = append(keys, key)
			items = append(items, xrand.Mix64(uint64(v)))
		}
		if _, err := server.NewClient(n.base()).AddFrame(ctx, &server.Frame{Keys: keys, Items64: items}); err != nil {
			t.Fatal(err)
		}
		twin.AddBatch64(keys, items)
	}
	feed(edges[0], "link-a", 0, 500)
	feed(edges[0], "link-b", 0, 300)
	feed(edges[1], "link-b", 150, 450)
	feed(edges[1], "link-c", 0, 200)

	for _, e := range edges {
		p := &Pusher{
			Source: e.srv.Store().MarshalBinary,
			Target: server.NewClient(agg.base(), server.WithRetry(1, 5*time.Millisecond)),
		}
		if res, err := p.PushOnce(ctx); err != nil {
			t.Fatal(err)
		} else if res.KeysMerged != e.srv.Store().Len() {
			t.Fatalf("pushed %d keys, edge holds %d", res.KeysMerged, e.srv.Store().Len())
		}
		if p.Pushes() != 1 || p.Failures() != 0 {
			t.Fatalf("pusher counters: pushes=%d failures=%d", p.Pushes(), p.Failures())
		}
	}

	aggClient := server.NewClient(agg.base())
	for _, key := range []string{"link-a", "link-b", "link-c"} {
		want, _ := twin.Estimate(key)
		got, ok, err := aggClient.Estimate(ctx, key)
		if err != nil || !ok {
			t.Fatalf("aggregator estimate %q: ok=%v err=%v", key, ok, err)
		}
		if got != want {
			t.Fatalf("aggregator %q = %v, twin (all records) = %v", key, got, want)
		}
	}

	// Pushes are idempotent set unions: re-pushing identical state must
	// not move any estimate.
	p := &Pusher{Source: edges[0].srv.Store().MarshalBinary, Target: server.NewClient(agg.base())}
	if _, err := p.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := aggClient.Estimate(ctx, "link-b"); func() float64 { w, _ := twin.Estimate("link-b"); return w }() != got {
		t.Fatalf("re-push moved link-b estimate to %v", got)
	}

	// Run: a ticker-driven pusher pushes on its own.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rp := &Pusher{
		Source:   edges[1].srv.Store().MarshalBinary,
		Target:   server.NewClient(agg.base()),
		Interval: 10 * time.Millisecond,
		Logf:     t.Logf,
	}
	go rp.Run(runCtx)
	deadline := time.Now().Add(2 * time.Second)
	for rp.Pushes() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ticker pusher made %d pushes", rp.Pushes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	// An aggregator outage is survivable: the push fails (counted), the
	// edge keeps counting, and the next push after recovery heals.
	agg.kill()
	fp := &Pusher{Source: edges[0].srv.Store().MarshalBinary,
		Target: server.NewClient(agg.base(), server.WithRetry(1, time.Millisecond))}
	if _, err := fp.PushOnce(ctx); err == nil {
		t.Fatal("push to a dead aggregator succeeded")
	}
	if fp.Failures() != 1 {
		t.Fatalf("failures=%d", fp.Failures())
	}
	agg.restart()
	if _, err := fp.PushOnce(ctx); err != nil {
		t.Fatalf("push after aggregator restart: %v", err)
	}
}

// TestPushNotMergeable: an S-bitmap edge cannot aggregate — the push
// must surface the server's typed not_mergeable error, which is exactly
// why cluster mode partitions S-bitmap keys instead of unioning them.
func TestPushNotMergeable(t *testing.T) {
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=3")
	agg := startNode(t, server.Config{Spec: spec})
	edge := startNode(t, server.Config{Spec: spec})
	ctx := context.Background()

	ec := server.NewClient(edge.base())
	if _, err := ec.AddFrame(ctx, &server.Frame{Keys: []string{"k"}, Items64: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	p := &Pusher{Source: edge.srv.Store().MarshalBinary, Target: server.NewClient(agg.base())}
	_, err := p.PushOnce(ctx)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeNotMergeable {
		t.Fatalf("want typed %s error, got %v", server.CodeNotMergeable, err)
	}
}
