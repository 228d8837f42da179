package cluster

import (
	"context"
	"encoding"
	"errors"
	"net"
	"testing"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// startWireCluster boots n peers each serving HTTP and a wire listener,
// and returns a cluster client routing ingest over the wire transport.
func startWireCluster(t *testing.T, n int, spec sbitmap.Spec) ([]*node, *Client) {
	t.Helper()
	nodes := make([]*node, n)
	peers := make([]string, n)
	wireAddrs := make(map[string]string, n)
	for i := range nodes {
		nodes[i] = startNode(t, server.Config{Spec: spec})
		peers[i] = nodes[i].base()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws := wire.Serve(ln, nodes[i].srv)
		t.Cleanup(func() { ws.Close() })
		wireAddrs[peers[i]] = ln.Addr().String()
	}
	cl, err := New(peers, WithRetry(1, 5*time.Millisecond), WithWireIngest(wireAddrs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return nodes, cl
}

// TestClusterWireIngestBitIdentical: the same partitioned workload
// through wire-transport ingest and through HTTP ingest must leave every
// peer's store bit-identical — WithWireIngest changes the transport, not
// the placement or the counting.
func TestClusterWireIngestBitIdentical(t *testing.T) {
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=5")
	wireNodes, wireCl := startWireCluster(t, 3, spec)
	httpNodes, httpCl := startCluster(t, 3, spec)

	keys, items := clusterWorkload(120, 40, 7)
	ctx := context.Background()
	for at := 0; at < len(keys); at += 997 { // uneven batches
		end := min(at+997, len(keys))
		wres, err := wireCl.AddFrame(ctx, &server.Frame{Keys: keys[at:end], Items64: items[at:end]})
		if err != nil {
			t.Fatal(err)
		}
		hres, err := httpCl.AddFrame(ctx, &server.Frame{Keys: keys[at:end], Items64: items[at:end]})
		if err != nil {
			t.Fatal(err)
		}
		if wres.Partial || hres.Partial {
			t.Fatalf("degraded mid-test: wire=%v http=%v", wres.Unreachable, hres.Unreachable)
		}
		if wres.Changed != hres.Changed || wres.Records != hres.Records {
			t.Fatalf("batch at %d: wire (%d rec, %d changed) vs http (%d rec, %d changed)",
				at, wres.Records, wres.Changed, hres.Records, hres.Changed)
		}
	}
	// String items exercise the second frame type end to end.
	strKeys := []string{"user-00001", "user-00002", "user-00001"}
	strItems := []string{"a", "b", "c"}
	if _, err := wireCl.AddFrame(ctx, &server.Frame{Keys: strKeys, ItemsString: strItems}); err != nil {
		t.Fatal(err)
	}
	if _, err := httpCl.AddFrame(ctx, &server.Frame{Keys: strKeys, ItemsString: strItems}); err != nil {
		t.Fatal(err)
	}

	// Ring placement is identical (same peer count ≠ same URLs, so compare
	// via the union of per-key counter state across the cluster).
	wireState := clusterState(t, wireNodes)
	httpState := clusterState(t, httpNodes)
	if len(wireState) != len(httpState) {
		t.Fatalf("key counts differ: %d vs %d", len(wireState), len(httpState))
	}
	for k, hb := range httpState {
		wb, ok := wireState[k]
		if !ok {
			t.Fatalf("key %q missing from wire-ingested cluster", k)
		}
		if string(wb) != string(hb) {
			t.Fatalf("key %q: counter state diverged between transports", k)
		}
	}

	// And the reads agree through the normal HTTP query path.
	for _, k := range []string{"user-00000", "user-00050", "user-00119"} {
		we, wok, err := wireCl.Estimate(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		he, hok, err := httpCl.Estimate(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !wok || !hok || we != he {
			t.Fatalf("key %q: wire estimate %v (%v), http %v (%v)", k, we, wok, he, hok)
		}
	}
}

// clusterState unions per-key marshaled counter state across all peers.
func clusterState(t *testing.T, nodes []*node) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, n := range nodes {
		n.srv.Store().ForEach(func(k string, c sbitmap.Counter) bool {
			if _, dup := out[k]; dup {
				t.Fatalf("key %q owned by two peers", k)
			}
			blob, err := c.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			out[k] = blob
			return true
		})
	}
	return out
}

// TestClusterWireFallbackUnmapped: peers without a wire mapping keep
// using HTTP within the same client — mixed transports in one ring.
func TestClusterWireFallbackUnmapped(t *testing.T) {
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=5")
	nodes := make([]*node, 2)
	peers := make([]string, 2)
	for i := range nodes {
		nodes[i] = startNode(t, server.Config{Spec: spec})
		peers[i] = nodes[i].base()
	}
	// Only peer 0 gets a wire listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(ln, nodes[0].srv)
	defer ws.Close()
	cl, err := New(peers, WithRetry(1, 5*time.Millisecond),
		WithWireIngest(map[string]string{peers[0]: ln.Addr().String()}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys, items := clusterWorkload(60, 10, 3)
	res, err := cl.AddFrame(context.Background(), &server.Frame{Keys: keys, Items64: items})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Records != len(keys) {
		t.Fatalf("mixed-transport ingest: %+v", res)
	}
	if nodes[0].srv.Store().Len()+nodes[1].srv.Store().Len() != 60 {
		t.Fatalf("keys split %d/%d, want 60 total",
			nodes[0].srv.Store().Len(), nodes[1].srv.Store().Len())
	}
}

// TestClusterRejectedFrameFailsOnBothTransports: a live peer that refuses
// a frame — here one over its body limit — has answered, over either
// transport. The ingest fails with a *PeerError naming the peer, and is
// not degraded into records dropped by an unreachable peer.
func TestClusterRejectedFrameFailsOnBothTransports(t *testing.T) {
	n := startNode(t, server.Config{Spec: sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=5"), MaxBodyBytes: 256})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(ln, n.srv)
	defer ws.Close()
	httpCl, err := New([]string{n.base()}, WithRetry(1, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	wireCl, err := New([]string{n.base()}, WithRetry(1, 5*time.Millisecond),
		WithWireIngest(map[string]string{n.base(): ln.Addr().String()}))
	if err != nil {
		t.Fatal(err)
	}
	defer wireCl.Close()

	keys, items := clusterWorkload(8, 8, 1) // 64 records: ~1.2 KB framed
	for _, tc := range []struct {
		name  string
		cl    *Client
		cause func(error) bool
	}{
		{"http", httpCl, func(err error) bool {
			var apiErr *server.APIError
			return errors.As(err, &apiErr) && apiErr.Code == server.CodeTooLarge
		}},
		{"wire", wireCl, func(err error) bool { return errors.Is(err, wire.ErrFrameRejected) }},
	} {
		res, err := tc.cl.AddFrame(context.Background(), &server.Frame{Keys: keys, Items64: items})
		var perr *PeerError
		if !errors.As(err, &perr) || perr.Peer != n.base() || !tc.cause(err) {
			t.Errorf("%s: AddFrame = (%+v, %v), want a *PeerError from %s", tc.name, res, err, n.base())
		}
	}
	if l := n.srv.Store().Len(); l != 0 {
		t.Fatalf("rejected frames left %d keys", l)
	}
}

// TestClusterAddFrameKeepsTimestamp: a timestamped frame keeps its
// timestamp through the partition, over HTTP and over the wire. Every
// peer files its records into the frame's sub-window and reports that
// sub-window as its watermark.
func TestClusterAddFrameKeepsTimestamp(t *testing.T) {
	spec := sbitmap.MustSpec("hll:mbits=1024,seed=7/windowed(width=1s,ring=4)")
	const widx = 40
	ts := time.Unix(widx, int64(time.Second)/2) // mid sub-window 40, long before now
	keys, items := clusterWorkload(120, 4, 5)
	ctx := context.Background()
	wireNodes, wireCl := startWireCluster(t, 3, spec)
	httpNodes, httpCl := startCluster(t, 3, spec)
	for _, tc := range []struct {
		name  string
		nodes []*node
		cl    *Client
	}{{"http", httpNodes, httpCl}, {"wire", wireNodes, wireCl}} {
		res, err := tc.cl.AddFrame(ctx, &server.Frame{Keys: keys, Items64: items, TSNanos: ts.UnixNano(), HasTS: true})
		if err != nil || res.Partial || res.Records != len(keys) {
			t.Fatalf("%s: AddFrame = (%+v, %v)", tc.name, res, err)
		}
		for i, n := range tc.nodes {
			if n.srv.Store().Len() == 0 {
				t.Fatalf("%s: node %d received no records", tc.name, i)
			}
			if wm, _, ok := n.srv.Store().WindowState(); !ok || wm != widx {
				t.Errorf("%s: node %d watermark %d (windowed %v), want sub-window %d", tc.name, i, wm, ok, widx)
			}
		}
	}
}
