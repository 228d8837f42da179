package stream

import (
	"testing"
	"testing/quick"
)

func countDistinct(s Stream) int {
	seen := make(map[uint64]bool)
	ForEach(s, func(x uint64) { seen[x] = true })
	return len(seen)
}

func TestDistinctExactCount(t *testing.T) {
	for _, n := range []int{0, 1, 100, 10000} {
		s := NewDistinct(n, 42)
		if got := countDistinct(s); got != n {
			t.Errorf("NewDistinct(%d): %d distinct items", n, got)
		}
		if s.Distinct() != n {
			t.Errorf("Distinct() = %d, want %d", s.Distinct(), n)
		}
	}
}

func TestDistinctReset(t *testing.T) {
	s := NewDistinct(10, 1)
	first := make([]uint64, 0, 10)
	ForEach(s, func(x uint64) { first = append(first, x) })
	s.Reset()
	i := 0
	ForEach(s, func(x uint64) {
		if x != first[i] {
			t.Fatalf("replay diverged at %d", i)
		}
		i++
	})
	if i != 10 {
		t.Fatalf("replay length %d, want 10", i)
	}
}

func TestDistinctSeedsDisjoint(t *testing.T) {
	a := make(map[uint64]bool)
	ForEach(NewDistinct(5000, 1), func(x uint64) { a[x] = true })
	overlap := 0
	ForEach(NewDistinct(5000, 2), func(x uint64) {
		if a[x] {
			overlap++
		}
	})
	if overlap > 0 {
		t.Errorf("streams with different seeds share %d items", overlap)
	}
}

func TestDuplicatedGroundTruth(t *testing.T) {
	for _, model := range []DupModel{DupUniform, DupZipf} {
		s := NewDuplicated(500, 5000, model, 7)
		total := 0
		seen := make(map[uint64]bool)
		ForEach(s, func(x uint64) { seen[x] = true; total++ })
		if len(seen) != 500 {
			t.Errorf("model %d: %d distinct, want 500", model, len(seen))
		}
		if total != 5000 {
			t.Errorf("model %d: length %d, want 5000", model, total)
		}
		if s.Distinct() != 500 {
			t.Errorf("model %d: Distinct() = %d", model, s.Distinct())
		}
	}
}

func TestZipfDuplicationIsSkewed(t *testing.T) {
	s := NewDuplicated(1000, 50000, DupZipf, 11)
	counts := make(map[uint64]int)
	ForEach(s, func(x uint64) { counts[x]++ })
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under Zipf(1.1) the most popular of 1000 items should absorb far
	// more than the uniform share (49 duplicates + 1).
	if max < 200 {
		t.Errorf("max multiplicity %d; expected heavy skew (> 200)", max)
	}
}

func TestInterleavedSameContents(t *testing.T) {
	f := func(seed uint64) bool {
		ref := make(map[uint64]int)
		ForEach(NewDuplicated(50, 300, DupUniform, seed), func(x uint64) { ref[x]++ })
		got := make(map[uint64]int)
		il := NewInterleaved(50, 300, DupUniform, seed)
		ForEach(il, func(x uint64) { got[x]++ })
		if il.Distinct() != 50 || len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWordsStream(t *testing.T) {
	w := NewWordsShared(1000, 20000, 3, 3)
	n := 0
	for {
		word, ok := w.NextWord()
		if !ok {
			break
		}
		if word == "" {
			t.Fatal("empty word emitted")
		}
		n++
	}
	if n != 20000 {
		t.Errorf("emitted %d words, want 20000", n)
	}
	d := w.DistinctSoFar()
	if d < 100 || d > 1000 {
		t.Errorf("distinct words = %d, want within (100, 1000]", d)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative distinct":   func() { NewDistinct(-1, 0) },
		"length < n":          func() { NewDuplicated(10, 5, DupUniform, 0) },
		"zero population":     func() { NewDuplicated(0, 5, DupUniform, 0) },
		"bad model":           func() { NewDuplicated(5, 10, DupModel(99), 0) },
		"words zero vocab":    func() { NewWordsShared(0, 10, 0, 0) },
		"words negative text": func() { NewWordsShared(10, -1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
