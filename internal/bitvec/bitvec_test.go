package bitvec

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewEmpty(t *testing.T) {
	v := New(0)
	if v.Len() != 0 || v.Ones() != 0 || v.Zeros() != 0 {
		t.Errorf("empty vector: len=%d ones=%d zeros=%d", v.Len(), v.Ones(), v.Zeros())
	}
}

func TestSetGet(t *testing.T) {
	v := New(200)
	if !v.Set(63) {
		t.Error("Set(63) on fresh vector returned false")
	}
	if v.Set(63) {
		t.Error("second Set(63) returned true")
	}
	if !v.Get(63) {
		t.Error("Get(63) false after Set")
	}
	if v.Get(64) {
		t.Error("Get(64) true without Set")
	}
	if v.Ones() != 1 || v.Zeros() != 199 {
		t.Errorf("ones=%d zeros=%d after one set", v.Ones(), v.Zeros())
	}
}

func TestOnesMatchesBruteForce(t *testing.T) {
	r := xrand.New(1)
	v := New(1000)
	ref := make(map[int]bool)
	for step := 0; step < 5000; step++ {
		if step%700 == 699 {
			v.Reset()
			clear(ref)
		}
		i := r.Intn(1000)
		if r.Uint64()&1 == 0 {
			v.Set(i)
		} else {
			v.SetUnchecked(i)
		}
		ref[i] = true
	}
	if v.Ones() != len(ref) {
		t.Fatalf("maintained ones=%d, brute force=%d", v.Ones(), len(ref))
	}
	for i := 0; i < 1000; i++ {
		if v.Get(i) != ref[i] {
			t.Fatalf("bit %d disagrees with reference", i)
		}
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(129)
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	if a.Ones() != 3 || !a.Get(1) || !a.Get(100) || !a.Get(129) {
		t.Errorf("union wrong: %v", a)
	}
	if err := a.UnionWith(New(10)); err == nil {
		t.Error("union of unequal lengths did not error")
	}
}

func TestReset(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i += 3 {
		v.Set(i)
	}
	v.Reset()
	if v.Ones() != 0 {
		t.Errorf("ones=%d after reset", v.Ones())
	}
	for i := 0; i < 100; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d still set after reset", i)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(500)
		v := New(n)
		for k := 0; k < n/2; k++ {
			v.Set(r.Intn(n))
		}
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		var w Vector
		if err := w.UnmarshalBinary(data); err != nil {
			return false
		}
		return v.Equal(&w) && v.Ones() == w.Ones()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	v := New(70)
	v.Set(69)
	data, _ := v.MarshalBinary()

	var w Vector
	if err := w.UnmarshalBinary(data[:5]); err == nil {
		t.Error("truncated data accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := w.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
	short := append([]byte(nil), data[:len(data)-8]...)
	if err := w.UnmarshalBinary(short); err == nil {
		t.Error("short body accepted")
	}
	// Set a bit beyond the declared length (bit 70 of the last word).
	stray := append([]byte(nil), data...)
	stray[12+8] |= 1 << (70 - 64)
	if err := w.UnmarshalBinary(stray); err == nil {
		t.Error("stray bits beyond length accepted")
	}
}

func TestPanics(t *testing.T) {
	v := New(10)
	for _, fn := range []func(){
		func() { New(-1) },
		func() { v.Get(-1) },
		func() { v.Get(10) },
		func() { v.Set(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStringForms(t *testing.T) {
	v := New(4)
	v.Set(1)
	v.Set(3)
	if got := v.String(); got != "0101" {
		t.Errorf("String() = %q, want 0101", got)
	}
	long := New(200)
	if got := long.String(); got == "" {
		t.Error("long String() empty")
	}
}

func BenchmarkSet(b *testing.B) {
	v := New(1 << 16)
	for i := 0; i < b.N; i++ {
		v.Set(i & (1<<16 - 1))
	}
}
