package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	sbitmap "repro"
)

// TestDecodeBorrowedReuseMatchesFresh: one Frame reused across inputs
// of both item types, with and without a timestamp, and across rejects
// must accept and reject exactly what a fresh Frame does, with the same
// error text, and decode equal frames.
func TestDecodeBorrowedReuseMatchesFresh(t *testing.T) {
	good64 := AppendFrame(nil, &Frame{Keys: []string{"alice", "bob", strings.Repeat("k", 300)}, Items64: []uint64{1, 1 << 60, 0}})
	goodStr := AppendFrame(nil, &Frame{Keys: []string{"k1", "k2"}, ItemsString: []string{"", "item-two"}})
	inputs := [][]byte{
		good64,
		goodStr,
		AppendFrame(nil, &Frame{Keys: []string{"k"}, Items64: []uint64{7}, TSNanos: 42, HasTS: true}),
		AppendFrame(nil, &Frame{}),
		AppendFrame(nil, &Frame{ItemsString: []string{}}),
		{},
		good64[:9],
		good64[:len(good64)-3],
		append(append([]byte{}, goodStr...), 0xAB),
		AppendFrame(nil, &Frame{Keys: []string{"ok", ""}, Items64: []uint64{1, 2}}),
	}
	var f Frame // one reused borrowed frame across every input
	for i, data := range inputs {
		var want Frame
		wantErr := want.DecodeBorrowed(data)
		gotErr := f.DecodeBorrowed(data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("input %d: fresh err %v, reused err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("input %d: error %q vs %q", i, gotErr, wantErr)
			}
			continue
		}
		// Compare the public decode result; the unexported spare fields
		// are reuse bookkeeping and legitimately differ on a reused frame.
		if !reflect.DeepEqual(f.Keys, want.Keys) ||
			!reflect.DeepEqual(f.Items64, want.Items64) ||
			!reflect.DeepEqual(f.ItemsString, want.ItemsString) ||
			f.TSNanos != want.TSNanos || f.HasTS != want.HasTS {
			t.Errorf("input %d: reused frame differs:\n%+v\n%+v", i, f, want)
		}
	}
}

// TestDecodeBorrowedAliases pins the zero-copy property itself (keys view
// the input buffer) and the reuse hazard it implies: mutating the buffer
// rewrites the decoded strings. This is the contract the store's
// clone-on-materialize behavior exists to absorb.
func TestDecodeBorrowedAliases(t *testing.T) {
	data := AppendFrame(nil, &Frame{Keys: []string{"flow-a"}, ItemsString: []string{"item"}})
	var f Frame
	if err := f.DecodeBorrowed(data); err != nil {
		t.Fatal(err)
	}
	if f.Keys[0] != "flow-a" {
		t.Fatalf("decoded key %q", f.Keys[0])
	}
	if unsafe.StringData(f.Keys[0]) != &data[11] {
		t.Fatalf("borrowed key does not alias the input buffer")
	}
	data[11] = 'X'
	if f.Keys[0] != "Xlow-a" {
		t.Fatalf("key after buffer mutation = %q, want aliased view", f.Keys[0])
	}
}

// TestFrameReleaseDropsReferences: a released frame keeps its slice
// capacity but no string references into the last buffer.
func TestFrameReleaseDropsReferences(t *testing.T) {
	var f Frame
	if err := f.DecodeBorrowed(AppendFrame(nil, &Frame{Keys: []string{"key"}, ItemsString: []string{"item"}})); err != nil {
		t.Fatal(err)
	}
	keepCap := cap(f.Keys)
	f.Release()
	if f.Records() != 0 || cap(f.Keys) != keepCap {
		t.Fatalf("after Release: %d records, key cap %d (want 0, %d)", f.Records(), cap(f.Keys), keepCap)
	}
	for _, k := range f.Keys[:keepCap] {
		if k != "" {
			t.Fatalf("released frame retains key %q", k)
		}
	}
}

// TestIngestFrameAllocFree is the wire-speed contract of this package:
// once the pooled scratch, the frame slices, and the store's keys are
// warm, decode-borrowed + IngestFrame (no WAL configured) + metrics
// performs zero heap allocations per frame — for uint64 and for string
// items. This is the exact per-message core the TCP listener runs.
func TestIngestFrameAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	srv, err := New(Config{Spec: sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1")})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 256)
	items64 := make([]uint64, len(keys))
	itemsS := make([]string, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%04x", i*7)
		items64[i] = uint64(i) * 0x9e37
		itemsS[i] = fmt.Sprintf("ip-%d", i%50)
	}
	frame64 := AppendFrame(nil, &Frame{Keys: keys, Items64: items64})
	frameStr := AppendFrame(nil, &Frame{Keys: keys, ItemsString: itemsS})

	sc := ingestPool.Get().(*ingestScratch)
	defer sc.release()
	aff := uintptr(unsafe.Pointer(sc))
	ingest := func(data []byte) {
		if err := sc.frame.DecodeBorrowed(data); err != nil {
			t.Fatal(err)
		}
		res, err := srv.IngestFrame(data, &sc.frame)
		if err != nil {
			t.Fatal(err)
		}
		srv.RecordIngest(aff, res.Records, res.Changed)
	}
	ingest(frame64) // warm: materialize keys, size the frame slices
	ingest(frameStr)
	if allocs := testing.AllocsPerRun(20, func() { ingest(frame64) }); allocs != 0 {
		t.Errorf("uint64 frame ingest: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { ingest(frameStr) }); allocs != 0 {
		t.Errorf("string frame ingest: %.1f allocs/op, want 0", allocs)
	}
}

// TestHandleAddBorrowedKeysSurviveBufferReuse: end-to-end through the
// HTTP handler, keys decoded zero-copy from one request's body must stay
// intact after later requests reuse the pooled body buffer.
func TestHandleAddBorrowedKeysSurviveBufferReuse(t *testing.T) {
	srv, err := New(Config{Spec: sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1")})
	if err != nil {
		t.Fatal(err)
	}
	postAdd(t, srv, FrameContentType, AppendFrame(nil, &Frame{Keys: []string{"keep-me"}, Items64: []uint64{42}}))
	// Same-size frame with different keys: forces the pooled body buffer
	// (and borrowed frame) to be rewritten in place if reused.
	for i := 0; i < 8; i++ {
		postAdd(t, srv, FrameContentType, AppendFrame(nil, &Frame{Keys: []string{fmt.Sprintf("other-%d", i)}, Items64: []uint64{uint64(i)}}))
	}
	if _, ok := srv.Store().Estimate("keep-me"); !ok {
		t.Fatal("key from first request lost after pooled buffer reuse")
	}
	found := false
	srv.Store().ForEach(func(k string, _ sbitmap.Counter) bool {
		if k == "keep-me" {
			found = true
		}
		if len(k) > 0 && k[0] != 'k' && k[0] != 'o' {
			t.Fatalf("corrupted stored key %q", k)
		}
		return true
	})
	if !found {
		t.Fatal("stored key set lost keep-me")
	}
}
