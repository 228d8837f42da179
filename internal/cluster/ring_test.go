package cluster

import (
	"fmt"
	"testing"
)

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty peer accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate peer accepted")
	}
}

// Placement must be a pure function of the peer SET: clients and servers
// agree on owners regardless of the order their -peers flags listed them.
func TestRingOrderIndependence(t *testing.T) {
	a, err := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://n3", "http://n1", "http://n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.OwnerPeer(key) != b.OwnerPeer(key) {
			t.Fatalf("key %q: owner %s under one order, %s under another",
				key, a.OwnerPeer(key), b.OwnerPeer(key))
		}
	}
}

func TestRingSinglePeer(t *testing.T) {
	r, err := NewRing([]string{"http://only"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("k%d", i)); got != 0 {
			t.Fatalf("owner %d, want 0", got)
		}
	}
}

// With the default virtual-node count, a 3-peer ring must spread keys
// within a loose band of the 1/3 mean — consistent hashing's point.
func TestRingBalance(t *testing.T) {
	peers := []string{"http://n1:8287", "http://n2:8287", "http://n3:8287"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(peers))
	const n = 30_000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("user-%06x", i))]++
	}
	for p, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("peer %d owns %.1f%% of keys (counts %v)", p, 100*frac, counts)
		}
	}
}

func TestRingPartition(t *testing.T) {
	r, err := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i%137) // repeats: same key, same part
	}
	parts := r.Partition(keys)
	total := 0
	for p, idx := range parts {
		last := -1
		for _, ix := range idx {
			if ix <= last {
				t.Fatalf("peer %d indices out of order: %v", p, idx)
			}
			last = ix
			if own := r.Owner(keys[ix]); own != p {
				t.Fatalf("key %q routed to peer %d, owner is %d", keys[ix], p, own)
			}
		}
		total += len(idx)
	}
	if total != len(keys) {
		t.Fatalf("partition covers %d of %d records", total, len(keys))
	}
	if got := r.Partition(nil); len(got) != 3 {
		t.Fatalf("empty partition: %v", got)
	}
}
