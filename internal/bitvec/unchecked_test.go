package bitvec

import (
	"testing"

	"repro/internal/xrand"
)

// TestUncheckedMatchesChecked drives an identical random op sequence
// through Set and SetUnchecked, probing both vectors with Get, and
// requires identical observable state at every step.
func TestUncheckedMatchesChecked(t *testing.T) {
	r := xrand.New(99)
	const n = 517 // not a multiple of 64: exercises the partial last word
	a, b := New(n), New(n)
	for step := 0; step < 20_000; step++ {
		i := r.Intn(n)
		if r.Uint64()&1 == 0 {
			if a.Set(i) != b.SetUnchecked(i) {
				t.Fatalf("step %d: Set(%d) disagrees with SetUnchecked", step, i)
			}
		} else {
			if a.Get(i) != b.Get(i) {
				t.Fatalf("step %d: Get(%d) disagrees after SetUnchecked", step, i)
			}
		}
	}
	if !a.Equal(b) || a.Ones() != b.Ones() {
		t.Fatalf("final state diverged: ones %d vs %d", a.Ones(), b.Ones())
	}
}

func BenchmarkSetUnchecked(b *testing.B) {
	v := New(1 << 16)
	for i := 0; i < b.N; i++ {
		v.SetUnchecked(i & (1<<16 - 1))
	}
}
