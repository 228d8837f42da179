package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	sbitmap "repro"
	"repro/internal/xrand"
)

// TestEndToEndMillionUpdates is the subsystem's acceptance criterion:
// sketchd's serving layer ingests ≥1M keyed updates through the client's
// binary-frame path, every per-key estimate matches a local Store fed the
// identical record sequence bit-identically, and a kill+restart from the
// checkpoint reproduces the same estimates.
func TestEndToEndMillionUpdates(t *testing.T) {
	nKeys := 1 << 16
	perKey := 16 // records per key => 1_048_576 updates
	if testing.Short() {
		nKeys, perKey = 1<<12, 8
	}
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=5")
	dir := t.TempDir()
	cfg := Config{Spec: spec, CheckpointDir: filepath.Join(dir, "ckpt")}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	local, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}

	// Round-robin over the key space (worst-case locality), batched into
	// frames; every frame also feeds the local twin through the same
	// Store entrypoint, so the two ingests are record-for-record equal.
	const batch = 8192
	keyName := func(k int) string { return fmt.Sprintf("user-%06d", k) }
	keys := make([]string, 0, batch)
	items := make([]uint64, 0, batch)
	total := 0
	flush := func() {
		if len(keys) == 0 {
			return
		}
		res, err := client.AddFrame(ctx, &Frame{Keys: keys, Items64: items})
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != len(keys) {
			t.Fatalf("frame reported %d records, sent %d", res.Records, len(keys))
		}
		local.AddBatch64(keys, items)
		total += len(keys)
		keys, items = keys[:0], items[:0]
	}
	for round := 0; round < perKey; round++ {
		for k := 0; k < nKeys; k++ {
			keys = append(keys, keyName(k))
			// Per-key distinct items scale with the key index, so spreads
			// (and estimates) differ across keys: ~k%31+1 distinct values.
			items = append(items, xrand.Mix64(uint64(k)<<8|uint64(round%(k%31+1))))
			if len(items) == batch {
				flush()
			}
		}
	}
	flush()
	if !testing.Short() && total < 1_000_000 {
		t.Fatalf("ingested %d records, want >= 1M", total)
	}
	if srv.Store().Len() != nKeys {
		t.Fatalf("server holds %d keys, want %d", srv.Store().Len(), nKeys)
	}

	// Per-key estimates: service vs local twin, bit-identical, every key.
	mismatches := 0
	local.ForEach(func(key string, c sbitmap.Counter) bool {
		got, ok := srv.Store().Estimate(key)
		if !ok || got != c.Estimate() {
			mismatches++
		}
		return mismatches < 10
	})
	if mismatches > 0 {
		t.Fatalf("%d keys with estimates differing from the local store", mismatches)
	}

	// Checkpoint, kill, restart: the restored server must reproduce every
	// estimate exactly (sampled over the HTTP surface, fully in-process).
	if _, err := client.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.RestoredKeys() != nKeys {
		t.Fatalf("restored %d keys, want %d", srv2.RestoredKeys(), nKeys)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := NewClient(ts2.URL)
	for k := 0; k < nKeys; k += nKeys / 256 {
		key := keyName(k)
		got, ok, err := client2.Estimate(ctx, key)
		if err != nil || !ok {
			t.Fatalf("%s after restart: ok=%v err=%v", key, ok, err)
		}
		want, _ := local.Estimate(key)
		if got != want {
			t.Errorf("%s: %v after restart, local %v", key, got, want)
		}
	}
	mismatches = 0
	srv2.Store().ForEach(func(key string, c sbitmap.Counter) bool {
		want, _ := local.Estimate(key)
		if c.Estimate() != want {
			mismatches++
		}
		return mismatches < 10
	})
	if mismatches > 0 {
		t.Fatalf("%d keys with estimates differing after restart", mismatches)
	}
}
