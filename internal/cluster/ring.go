// Package cluster turns N sketchd processes into one logical counting
// service — the paper's Section 7 deployment (many edge monitors, one
// central view) as a real topology instead of a manual merge.
//
// Three pieces:
//
//   - Ring: a consistent-hash ring over a static peer list. Placement is
//     a pure function of (peer list, key), so every client and server
//     that agrees on the peer list agrees on which node owns which key —
//     no coordination service, no routing table to ship.
//   - Client: a cluster-aware face over the per-node typed client. Add
//     frames are partitioned by key owner and routed; estimate goes to
//     the owner; top-k, stats, and health scatter-gather across the ring
//     (k-way merge for top-k). A dead peer degrades the answer
//     (Partial=true + who was unreachable) instead of failing it.
//   - Pusher: the edge→aggregator half. An edge node periodically ships
//     its whole-store snapshot to an aggregator, which key-wise unions
//     mergeable kinds into the central view.
//
// Partitioning is what keeps the S-bitmap (not mergeable across
// differing sketch states) exact in a cluster: every key lives on
// exactly one owner, so its sketch is the same bit-identical object a
// single process would hold, and cluster reads equal single-node reads.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/xrand"
)

// DefaultVirtualNodes is the ring's per-peer virtual-node count: enough
// points that the largest partition is within a few percent of the mean
// for small clusters.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring over a static peer list. Immutable
// after construction; safe for concurrent use.
type Ring struct {
	peers  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// NewRing builds a ring over peers (base URLs, order significant only
// for reporting — placement depends on the set of strings, not their
// order), with DefaultVirtualNodes points per peer.
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	seen := make(map[string]bool, len(peers))
	r := &Ring{
		peers:  append([]string(nil), peers...),
		points: make([]ringPoint, 0, len(peers)*DefaultVirtualNodes),
	}
	for i, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer at index %d", i)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		for v := 0; v < DefaultVirtualNodes; v++ {
			// The vnode hash folds the replica index into the peer name's
			// hash and finalizes through a full-avalanche mixer — raw
			// FNV over near-identical inputs clusters badly on the ring.
			h := xrand.Mix64(fnv64a(p) + uint64(v)*0x9e3779b97f4a7c15)
			r.points = append(r.points, ringPoint{hash: h, peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by peer name so placement
		// stays independent of peer-list order.
		return r.peers[r.points[a].peer] < r.peers[r.points[b].peer]
	})
	return r, nil
}

// Peers returns the peer list the ring was built over.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the index (into Peers) of the peer owning key: the first
// ring point at or after the key's hash, wrapping at the top.
func (r *Ring) Owner(key string) int {
	h := xrand.Mix64(fnv64a(key))
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].peer
}

// OwnerPeer returns the base URL of the peer owning key.
func (r *Ring) OwnerPeer(key string) string { return r.peers[r.Owner(key)] }

// Partition splits a record batch by owner: out[p] lists the indices of
// keys owned by peer p, in input order. The sub-batches preserve record
// order within a peer, so a partitioned ingest applies each node's
// records in the same sequence a single node would have seen them.
func (r *Ring) Partition(keys []string) [][]int {
	out := make([][]int, len(r.peers))
	if len(keys) == 0 {
		return out
	}
	// Count first so each peer's index slice is allocated exactly once.
	counts := make([]int, len(r.peers))
	owners := make([]int, len(keys))
	for i, k := range keys {
		o := r.Owner(k)
		owners[i] = o
		counts[o]++
	}
	for p, n := range counts {
		if n > 0 {
			out[p] = make([]int, 0, n)
		}
	}
	for i, o := range owners {
		out[o] = append(out[o], i)
	}
	return out
}

// fnv64a is FNV-1a over a string; ring hashes finalize it through
// xrand.Mix64 for avalanche. Stable across processes and builds by
// construction (pure arithmetic), which is the property that lets
// clients and servers agree on ownership without talking to each other.
// Deliberately NOT the sketches' hash family: ring placement and item
// hashing must be uncorrelated.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
