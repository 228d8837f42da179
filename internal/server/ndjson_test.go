package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	sbitmap "repro"
)

// appendNDJSONLine appends one record as the flat line the fast path
// decodes: {"key":…,"item":…} with ",ts":N added when ts is non-zero.
func appendNDJSONLine(dst []byte, key, item string, ts int64) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","item":"`...)
	dst = append(dst, item...)
	dst = append(dst, '"')
	if ts != 0 {
		dst = append(dst, `,"ts":`...)
		dst = strconv.AppendInt(dst, ts, 10)
	}
	return append(dst, "}\n"...)
}

// TestDecodeNDJSONLine: the fast path takes the flat shape in its
// variants (any name order, JSON whitespace, no ts, the int64 range) and
// reads the key in place. What it must decline, FuzzNDJSONLine's seeds
// hold against encoding/json.
func TestDecodeNDJSONLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want ndjsonRecord
	}{
		{`{"key":"user-00002a","item":"0123456789abcdef","ts":1723000000000000000}`,
			ndjsonRecord{"user-00002a", "0123456789abcdef", 1723000000000000000}},
		{" { \"ts\" : -0 ,\t\"item\":\"\" ,\r\"key\" : \"k\" } ", ndjsonRecord{Key: "k"}},
		{"{\"item\":\"<&>/ ~\x7f\",\"key\":\"a b\"}", ndjsonRecord{Key: "a b", Item: "<&>/ ~\x7f"}},
		{`{"key":"a","ts":9223372036854775807}`, ndjsonRecord{Key: "a", TS: math.MaxInt64}},
		{`{"key":"a","ts":-9223372036854775808}`, ndjsonRecord{Key: "a", TS: math.MinInt64}},
		{`{"key":"a","ts":0}`, ndjsonRecord{Key: "a"}},
	} {
		line := []byte(tc.line)
		got, ok := decodeNDJSONLine(line)
		if !ok || got != tc.want {
			t.Errorf("%q: got %+v, %v; want %+v", tc.line, got, ok, tc.want)
			continue
		}
		at := bytes.Index(line, []byte(`"`+got.Key+`"`)) + 1
		if unsafe.StringData(got.Key) != &line[at] {
			t.Errorf("%q: key does not alias the line", tc.line)
		}
	}
}

// postAdd sends body to srv's /v1/add in-process and fails the test on
// any status but 200.
func postAdd(tb testing.TB, srv *Server, contentType string, body []byte) {
	tb.Helper()
	req := httptest.NewRequest("POST", "/v1/add", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST /v1/add: %d %s", rec.Code, rec.Body)
	}
}

// TestHandleAddNDJSONKeysSurviveBufferReuse is
// TestHandleAddBorrowedKeysSurviveBufferReuse for NDJSON: keys and items
// decoded from one body alias the pooled body buffer, so after later
// bodies of the same size rewrite it, every key must still carry a twin
// Store's estimate, under its exact bytes in TopK. It covers an
// unwindowed store and a windowed store whose records carry ts.
func TestHandleAddNDJSONKeysSurviveBufferReuse(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ts   int64 // first body's record time; 0 sends no ts
	}{
		{"hll:mbits=512", 0},
		{"hll:mbits=512/windowed(width=1m,ring=5)", 1723000000e9},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			spec := sbitmap.MustSpec(tc.spec)
			srv, err := New(Config{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			twin, err := sbitmap.NewStore[string](spec)
			if err != nil {
				t.Fatal(err)
			}
			// Every body has the same length: 8 keys of one prefix, 8
			// items each, so the pooled buffer is rewritten in place.
			send := func(prefix string, round int) {
				t.Helper()
				ts, at := int64(0), time.Time{}
				if tc.ts != 0 {
					ts = tc.ts + int64(round)*int64(time.Second)
					at = time.Unix(0, ts)
				}
				var body []byte
				for j := range 64 {
					key, item := fmt.Sprintf("%s-%d", prefix, j%8), fmt.Sprintf("item-%02d-%02d", round, j)
					body = appendNDJSONLine(body, key, item, ts)
					twin.AddStringAt(at, key, item)
				}
				postAdd(t, srv, "application/x-ndjson", body)
			}
			send("keep", 0)
			for round := 1; round <= 8; round++ {
				send("othr", round)
			}
			byKey := func(a, b sbitmap.KeyEstimate[string]) int { return strings.Compare(a.Key, b.Key) }
			got, want := srv.Store().TopK(math.MaxInt), twin.TopK(math.MaxInt)
			slices.SortFunc(got, byKey)
			slices.SortFunc(want, byKey)
			if !slices.Equal(got, want) {
				t.Fatalf("TopK after pooled buffer reuse:\n got %v\nwant %v", got, want)
			}
			for j := range 8 {
				key := fmt.Sprintf("keep-%d", j)
				est, ok := srv.Store().Estimate(key)
				if wantEst, _ := twin.Estimate(key); !ok || est != wantEst {
					t.Errorf("%s: estimate %v ok=%v, twin %v", key, est, ok, wantEst)
				}
			}
		})
	}
}

// ndjsonBodies renders n requests of per records each, shaped like the
// ndjson-window benchmark's ({"key":"user-%06x","item":"<16 hex>",
// "ts":N}, request i stamped one second after request i-1), both as
// NDJSON bodies and as one timestamped string frame per request.
func ndjsonBodies(n, per int) (bodies, frames [][]byte) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := range n {
		ts := int64(1723000000e9) + int64(i)*int64(time.Second)
		f := Frame{ItemsString: []string{}, TSNanos: ts, HasTS: true}
		var body []byte
		for range per {
			key, item := fmt.Sprintf("user-%06x", r.IntN(1<<14)), fmt.Sprintf("%016x", r.Uint64())
			f.Keys, f.ItemsString = append(f.Keys, key), append(f.ItemsString, item)
			body = appendNDJSONLine(body, key, item, ts)
		}
		bodies, frames = append(bodies, body), append(frames, AppendFrame(nil, &f))
	}
	return bodies, frames
}

// ndjsonBenchSpec is the ndjson-window benchmark's store.
const ndjsonBenchSpec = "hll:mbits=512/windowed(width=1m,ring=5)"

// TestNDJSONIngestAllocFree: a warm 1,024-record NDJSON request through
// ServeHTTP, to a server with no WAL, allocates no more often than the
// same records sent as one frame request: the fast path copies nothing
// out of the body, so only the request's own objects allocate.
func TestNDJSONIngestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	bodies, frames := ndjsonBodies(1, 1024)
	allocs := func(contentType string, body []byte) float64 {
		srv, err := New(Config{Spec: sbitmap.MustSpec(ndjsonBenchSpec)})
		if err != nil {
			t.Fatal(err)
		}
		postAdd(t, srv, contentType, body) // warm: keys, pooled scratch
		return testing.AllocsPerRun(20, func() { postAdd(t, srv, contentType, body) })
	}
	frame := allocs(FrameContentType, frames[0])
	ndjson := allocs("application/x-ndjson", bodies[0])
	t.Logf("allocations per 1,024-record request: NDJSON %.1f, frame %.1f", ndjson, frame)
	if ndjson > frame {
		t.Errorf("NDJSON request: %.1f allocs, frame request %.1f; want no more", ndjson, frame)
	}
}

// BenchmarkIngestNDJSON runs 64 distinct 1,024-record requests through
// ServeHTTP on the ndjson-window benchmark's store with no WAL, as
// NDJSON and as the same records in one frame each, and reports ns per
// record for both.
func BenchmarkIngestNDJSON(b *testing.B) {
	bodies, frames := ndjsonBodies(64, 1024)
	for _, bc := range []struct {
		name, contentType string
		reqs              [][]byte
	}{
		{"ndjson", "application/x-ndjson", bodies},
		{"frame", FrameContentType, frames},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(Config{Spec: sbitmap.MustSpec(ndjsonBenchSpec)})
			if err != nil {
				b.Fatal(err)
			}
			for _, req := range bc.reqs {
				postAdd(b, srv, bc.contentType, req)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				postAdd(b, srv, bc.contentType, bc.reqs[i%len(bc.reqs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/rec")
		})
	}
}

// TestClientAddNDJSONUnescaped: Client.AddNDJSON writes <, > and & as
// themselves rather than as \u003c-style escapes, so every line it sends
// takes the server's fast path, and the records count as a twin Store
// fed them directly counts them.
func TestClientAddNDJSONUnescaped(t *testing.T) {
	spec := sbitmap.MustSpec("hll:mbits=512")
	srv, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sent [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		sent = append(sent, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"<a>", "b&c", "<script>alert(1)</script>", "x>y", "a&amp;b"}
	var keys, items []string
	for i := range 40 {
		key, item := names[i%len(names)], fmt.Sprintf("<item %d & %s>", i%13, names[i%3])
		keys, items = append(keys, key), append(items, item)
		twin.AddString(key, item)
	}
	if _, err := NewClient(ts.URL).AddNDJSON(context.Background(), keys, items); err != nil {
		t.Fatal(err)
	}
	for _, key := range names {
		got, ok := srv.Store().Estimate(key)
		if want, _ := twin.Estimate(key); !ok || got != want {
			t.Errorf("%q: estimate %v ok=%v, twin %v", key, got, ok, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 1 {
		t.Fatalf("client sent %d requests, want 1", len(sent))
	}
	lines := bytes.Split(bytes.TrimSuffix(sent[0], []byte("\n")), []byte("\n"))
	if len(lines) != len(keys) {
		t.Fatalf("client sent %d lines for %d records", len(lines), len(keys))
	}
	for i, line := range lines {
		rec, ok := decodeNDJSONLine(line)
		if !ok || rec.Key != keys[i] || rec.Item != items[i] {
			t.Errorf("line %d %s: fast path read %+v, ok=%v", i+1, line, rec, ok)
		}
	}
}
