package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/server"
)

func entries(pairs ...any) []server.Entry {
	out := make([]server.Entry, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, server.Entry{Key: pairs[i].(string), Estimate: pairs[i+1].(float64)})
	}
	return out
}

// mergeTopK must reproduce the exact order a single Store's TopK uses:
// estimate descending, ties by ascending key — including across lists.
func TestMergeTopK(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]server.Entry
		k     int
		want  []server.Entry
	}{
		{
			name:  "disjoint",
			lists: [][]server.Entry{entries("a", 5.0, "c", 1.0), entries("b", 3.0)},
			k:     3,
			want:  entries("a", 5.0, "b", 3.0, "c", 1.0),
		},
		{
			name:  "ties break by ascending key across peers",
			lists: [][]server.Entry{entries("b", 2.0), entries("a", 2.0, "z", 2.0)},
			k:     3,
			want:  entries("a", 2.0, "b", 2.0, "z", 2.0),
		},
		{
			name:  "k truncates",
			lists: [][]server.Entry{entries("a", 5.0, "b", 4.0), entries("c", 4.5)},
			k:     2,
			want:  entries("a", 5.0, "c", 4.5),
		},
		{
			name:  "duplicate key keeps larger estimate",
			lists: [][]server.Entry{entries("a", 5.0), entries("a", 3.0, "b", 1.0)},
			k:     3,
			want:  entries("a", 5.0, "b", 1.0),
		},
		{
			name:  "empty and nil lists",
			lists: [][]server.Entry{nil, entries("a", 1.0), {}},
			k:     5,
			want:  entries("a", 1.0),
		},
	}
	for _, tc := range cases {
		if got := mergeTopK(tc.lists, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Sharding a ranked key set over ring partitions and merging the
// per-partition top-k must equal the unsharded ranking — the exhaustive
// twin check, free of HTTP.
func TestMergeTopKAgainstFlatRanking(t *testing.T) {
	r, err := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	if err != nil {
		t.Fatal(err)
	}
	var flat []server.Entry
	lists := make([][]server.Entry, 3)
	for i := 0; i < 500; i++ {
		e := server.Entry{Key: fmt.Sprintf("user-%04d", i), Estimate: float64(i % 37)} // many ties
		flat = append(flat, e)
		lists[r.Owner(e.Key)] = append(lists[r.Owner(e.Key)], e)
	}
	byRank := func(s []server.Entry) {
		sort.Slice(s, func(a, b int) bool {
			if s[a].Estimate != s[b].Estimate {
				return s[a].Estimate > s[b].Estimate
			}
			return s[a].Key < s[b].Key
		})
	}
	byRank(flat)
	for _, l := range lists {
		byRank(l)
	}
	for _, k := range []int{1, 7, 100, 500, 1000} {
		got := mergeTopK(lists, k)
		want := flat[:min(k, len(flat))]
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged ranking diverges from flat ranking (got %d entries, first %v)", k, len(got), got[0])
		}
	}
}
