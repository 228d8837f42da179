package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	sbitmap "repro"
)

func TestBuildCountersSingle(t *testing.T) {
	for _, algo := range []string{"sbitmap", "hll", "loglog", "mr", "lc", "fm", "adaptive", "exact"} {
		cs, err := buildCounters(algo, 1e5, 0.02, 8000, 1)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(cs) != 1 || cs[0].name != algo {
			t.Fatalf("%s: got %v", algo, cs)
		}
		// Every built counter must actually count.
		for i := uint64(0); i < 1000; i++ {
			cs[0].counter.AddUint64(i)
		}
		est := cs[0].counter.Estimate()
		if est < 300 || est > 3000 {
			t.Errorf("%s: estimate %.0f for n=1000", algo, est)
		}
	}
}

func TestBuildCountersAll(t *testing.T) {
	cs, err := buildCounters("all", 1e5, 0.02, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 8 {
		t.Fatalf("all built %d counters, want 8", len(cs))
	}
}

func TestBuildCountersErrors(t *testing.T) {
	if _, err := buildCounters("nope", 1e5, 0.02, 8000, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := buildCounters("mr", 1e9, 0.02, 64, 1); err == nil {
		t.Error("impossible mr-bitmap dimensioning accepted")
	}
}

func TestKeyedSpecResolution(t *testing.T) {
	// -spec wins and must be single.
	sp, err := keyedSpec("hll:mbits=2048", "sbitmap", 1e6, 0.01, 0, 1)
	if err != nil || sp.Kind != "hll" || sp.MemoryBits != 2048 {
		t.Fatalf("spec path: %+v, %v", sp, err)
	}
	if _, err := keyedSpec("hll:mbits=1;hll:mbits=2", "", 1e6, 0.01, 0, 1); err == nil {
		t.Error("multi-spec accepted for -keyed")
	}
	// Flag vocabulary: S-bitmap from (n, eps); budget kinds from Memory.
	sp, err = keyedSpec("", "sbitmap", 1e5, 0.02, 0, 7)
	if err != nil || sp.N != 1e5 || sp.Eps != 0.02 || sp.Seed != 7 {
		t.Fatalf("sbitmap flags: %+v, %v", sp, err)
	}
	sp, err = keyedSpec("", "hll", 1e5, 0.02, 0, 1)
	if err != nil || sp.MemoryBits <= 0 {
		t.Fatalf("hll default budget: %+v, %v", sp, err)
	}
	sp, err = keyedSpec("", "mr", 1e5, 0.02, 4000, 1)
	if err != nil || sp.N != 1e5 || sp.MemoryBits != 4000 {
		t.Fatalf("mr flags: %+v, %v", sp, err)
	}
	if _, err := keyedSpec("", "nope", 1e5, 0.02, 0, 1); err == nil {
		t.Error("unknown algo accepted")
	}
	// Every resolved spec must construct a Store.
	for _, algo := range []string{"sbitmap", "hll", "loglog", "mr", "lc", "fm", "adaptive", "exact"} {
		sp, err := keyedSpec("", algo, 1e5, 0.02, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		st, err := sbitmap.NewStore[string](sp)
		if err != nil {
			t.Fatalf("%s: NewStore: %v", algo, err)
		}
		st.AddString("k", "v")
		if est, ok := st.Estimate("k"); !ok || est < 0.5 {
			t.Errorf("%s: estimate %v ok=%v", algo, est, ok)
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	// Satellite acceptance: unreadable input and bad -spec exit non-zero
	// with a clear one-line message, never a bare panic-style failure.
	dir := t.TempDir()
	good := filepath.Join(dir, "lines.txt")
	if err := os.WriteFile(good, []byte("a\nb\na\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr; "" means stderr must be empty
	}{
		{"ok stdin", []string{"-algo", "exact"}, 0, ""},
		{"ok file", []string{"-algo", "exact", good}, 0, ""},
		{"missing file", []string{"-algo", "exact", filepath.Join(dir, "nope.txt")}, 1, "no such file"},
		{"one bad file of several", []string{"-algo", "exact", good, filepath.Join(dir, "nope.txt")}, 1, "no such file"},
		{"bad spec", []string{"-spec", "wat:mbits=1"}, 1, "unknown sketch kind"},
		{"underdimensioned spec", []string{"-spec", "sbitmap:n=1e6"}, 1, "exactly two of"},
		{"bad keyed spec", []string{"-keyed", "-spec", "wat"}, 1, "unknown sketch kind"},
		{"multi keyed spec", []string{"-keyed", "-spec", "exact;exact"}, 1, "single spec"},
		{"bad algo", []string{"-algo", "wat"}, 1, "unknown algorithm"},
		{"bad flag", []string{"-definitely-not-a-flag"}, 1, "flag provided but not defined"},
		{"bad dimensioning", []string{"-n", "-5"}, 1, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader("x\ny\n"), &stdout, &stderr)
		if code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.wantCode, stderr.String())
			continue
		}
		if tc.wantCode == 0 && tc.wantErr == "" && stderr.Len() > 0 {
			t.Errorf("%s: unexpected stderr: %s", tc.name, stderr.String())
		}
		if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.wantErr)
		}
	}
}

func TestRunCountsFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.txt")
	f2 := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(f1, []byte("x\ny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, []byte("y\nz\nz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-algo", "exact", f1, f2}, strings.NewReader("ignored\n"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "5 lines read") || !strings.Contains(out, "estimate            3") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunKeyedFromFile(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "kv.txt")
	if err := os.WriteFile(f, []byte("u1 a\nu1 b\nu2 a\nmalformed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-keyed", "-spec", "exact", "-top", "2", f}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "2 keys tracked") || !strings.Contains(out, "1 without 'key item' shape skipped") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "u1") {
		t.Errorf("top keys missing u1:\n%s", out)
	}
}

// TestRunKeyedMaxKeysHelpers runs -keyed -maxkeys on full 512-line
// batches at GOMAXPROCS 2, where the Store's batch helpers apply
// stripes beside the caller and so run the eviction hook concurrently
// (under -race, the check on the eviction count). Every key appears
// once, so each line materializes a key and every key is either still
// tracked or evicted.
func TestRunKeyedMaxKeysHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const lines, maxKeys = 40 * 512, 1000
	var in strings.Builder
	for i := range lines {
		fmt.Fprintf(&in, "k%06d item\n", i)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-keyed", "-spec", "exact", "-maxkeys", fmt.Sprint(maxKeys), "-top", "0"}
	if code := run(args, strings.NewReader(in.String()), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	m := regexp.MustCompile(`(\d+) keys tracked.*, (\d+) keys evicted`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no eviction count in output:\n%s", stdout.String())
	}
	tracked, _ := strconv.Atoi(m[1])
	evicted, _ := strconv.Atoi(m[2])
	if tracked+evicted != lines {
		t.Errorf("%d keys tracked + %d evicted, want %d", tracked, evicted, lines)
	}
	if tracked > maxKeys+64 {
		t.Errorf("%d keys tracked, limit %d + 64 stripes", tracked, maxKeys)
	}
}

// errReader fails mid-stream, as a disappearing pipe would.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestRunStreamError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-algo", "exact"}, errReader{err: errors.New("pipe exploded")}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "pipe exploded") {
		t.Errorf("exit %d, stderr %q", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-keyed", "-spec", "exact"}, errReader{err: errors.New("pipe exploded")}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "pipe exploded") {
		t.Errorf("keyed: exit %d, stderr %q", code, stderr.String())
	}
}
