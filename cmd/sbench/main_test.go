package main

import (
	"testing"

	"repro/internal/experiment"
)

// TestReportsResolve: every report id resolves through the table to its
// own entry, and none shadows an experiment id, so one -run list can mix
// both kinds.
func TestReportsResolve(t *testing.T) {
	experiments := make(map[string]bool)
	for _, id := range experiment.IDs() {
		experiments[id] = true
	}
	for _, r := range reports {
		got, ok := findReport(r.id)
		if !ok || got.id != r.id || got.run == nil {
			t.Errorf("report %q does not resolve to itself: got %q, ok=%v", r.id, got.id, ok)
		}
		if experiments[r.id] {
			t.Errorf("report id %q is also an experiment id", r.id)
		}
	}
}
