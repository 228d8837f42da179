package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	sbitmap "repro"
)

// The /v1/merge failure modes as a client sees them: every refusal must
// arrive as a typed *APIError the caller can switch on, not a string.

func newTestService(t *testing.T, spec string) (*Server, *Client) {
	t.Helper()
	srv, err := New(Config{Spec: sbitmap.MustSpec(spec)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func snapshotOf(t *testing.T, spec string, keys []string, items []uint64) []byte {
	t.Helper()
	st, err := sbitmap.NewStore[string](sbitmap.MustSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	st.AddBatch64(keys, items)
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestClientMergeSpecMismatch(t *testing.T) {
	_, c := newTestService(t, "hll:mbits=1024,seed=2")
	// Same kind, different dimensioning — and separately, same shape but a
	// different seed: both must refuse (register indexes would disagree).
	for _, peerSpec := range []string{"hll:mbits=2048,seed=2", "hll:mbits=1024,seed=3"} {
		blob := snapshotOf(t, peerSpec, []string{"k"}, []uint64{1})
		_, err := c.Merge(context.Background(), blob)
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("peer %s: want *APIError, got %v", peerSpec, err)
		}
		if apiErr.Code != CodeSpecMismatch || apiErr.Status != 409 {
			t.Fatalf("peer %s: code=%s status=%d, want %s/409", peerSpec, apiErr.Code, apiErr.Status, CodeSpecMismatch)
		}
	}
}

func TestClientMergeNotMergeable(t *testing.T) {
	const spec = "sbitmap:n=1e4,eps=0.1,seed=4"
	srv, c := newTestService(t, spec)
	blob := snapshotOf(t, spec, []string{"k"}, []uint64{1})
	_, err := c.Merge(context.Background(), blob)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Code != CodeNotMergeable || apiErr.Status != 422 {
		t.Fatalf("code=%s status=%d, want %s/422", apiErr.Code, apiErr.Status, CodeNotMergeable)
	}
	if srv.Store().Len() != 0 {
		t.Fatalf("refused merge still materialized %d keys", srv.Store().Len())
	}
}

func TestClientMergeBadSnapshot(t *testing.T) {
	_, c := newTestService(t, "hll:mbits=1024,seed=2")
	_, err := c.Merge(context.Background(), []byte("definitely not a store envelope"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadSnapshot {
		t.Fatalf("want typed %s, got %v", CodeBadSnapshot, err)
	}
}

func TestClientMergeUnion(t *testing.T) {
	// The success path through the client: a peer snapshot unions into
	// the server, and the result equals a store fed both record sets.
	const spec = "hll:mbits=1024,seed=2"
	srv, c := newTestService(t, spec)
	ctx := context.Background()
	if _, err := c.AddFrame(ctx, &Frame{Keys: []string{"a", "b"}, Items64: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Merge(ctx, snapshotOf(t, spec, []string{"b", "c"}, []uint64{9, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.KeysMerged != 2 {
		t.Fatalf("KeysMerged=%d, want 2", res.KeysMerged)
	}
	twin, err := sbitmap.NewStore[string](sbitmap.MustSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	twin.AddBatch64([]string{"a", "b", "b", "c"}, []uint64{1, 2, 9, 3})
	twin.ForEach(func(key string, cnt sbitmap.Counter) bool {
		got, ok := srv.Store().Estimate(key)
		if !ok || got != cnt.Estimate() {
			t.Fatalf("key %q: merged %v, twin %v (ok=%v)", key, got, cnt.Estimate(), ok)
		}
		return true
	})
}

func TestClientHealthAndCluster(t *testing.T) {
	spec := sbitmap.MustSpec("hll:mbits=1024,seed=2")
	srv, err := New(Config{Spec: spec, Cluster: ClusterInfo{
		Role:  RoleEdge,
		Peers: []string{"http://n1:8287", "http://n2:8287"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Spec != spec.String() || h.Role != RoleEdge || h.UptimeSeconds < 0 {
		t.Fatalf("health: %+v", h)
	}

	info, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != RoleEdge || len(info.Peers) != 2 {
		t.Fatalf("cluster info: %+v", info)
	}

	// A standalone node still reports a concrete role.
	_, c2 := newTestService(t, "hll:mbits=1024,seed=2")
	info, err = c2.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != RoleStandalone {
		t.Fatalf("default role %q, want %q", info.Role, RoleStandalone)
	}
}
