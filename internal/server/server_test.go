package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	sbitmap "repro"
	"repro/internal/wal"
)

// newTestServer starts an httptest server around a fresh Server and
// returns it with a client.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, NewClient(ts.URL)
}

func TestNewBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"empty spec":     {},
		"bad sbitmap":    {Spec: sbitmap.Spec{Kind: sbitmap.KindSBitmap, N: 1e6}},
		"unknown kind":   {Spec: sbitmap.Spec{Kind: "nope"}},
		"negative body":  {Spec: sbitmap.MustSpec("hll:mbits=512"), MaxBodyBytes: -1},
		"bad stripes":    {Spec: sbitmap.MustSpec("hll:mbits=512"), Stripes: -1},
		"negative limit": {Spec: sbitmap.MustSpec("hll:mbits=512"), MaxKeys: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// apiErrorOf performs one raw request and decodes the typed error payload.
func apiErrorOf(t *testing.T, ts *httptest.Server, method, path, contentType string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if resp.StatusCode/100 != 2 {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			// Non-JSON error bodies (e.g. the mux's 405) report no code.
			return resp.StatusCode, ""
		}
	}
	return resp.StatusCode, eb.Error.Code
}

func TestHandlerErrorTable(t *testing.T) {
	_, ts, client := newTestServer(t, Config{
		Spec:         sbitmap.MustSpec("hll:mbits=512"),
		MaxBodyBytes: 4096,
	})
	// One known key so unknown-key is distinguishable from empty store.
	if _, err := client.AddNDJSON(context.Background(), []string{"known"}, []string{"x"}); err != nil {
		t.Fatal(err)
	}

	otherSpec, err := sbitmap.NewStore[string](sbitmap.MustSpec("hll:mbits=1024"))
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := otherSpec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name        string
		method      string
		path        string
		contentType string
		body        []byte
		wantStatus  int
		wantCode    string
	}{
		{"malformed ndjson", "POST", "/v1/add", "application/x-ndjson",
			[]byte("{\"key\":\"a\",\"item\":\"b\"}\nnot json\n"), 400, CodeBadNDJSON},
		{"ndjson missing key", "POST", "/v1/add", "application/x-ndjson",
			[]byte("{\"item\":\"b\"}\n"), 400, CodeBadNDJSON},
		{"ndjson item not string", "POST", "/v1/add", "application/x-ndjson",
			[]byte("{\"key\":\"a\",\"item\":7}\n"), 400, CodeBadNDJSON},
		{"malformed frame", "POST", "/v1/add", FrameContentType,
			[]byte("SBF1 garbage that is not a frame"), 400, CodeBadFrame},
		{"truncated frame", "POST", "/v1/add", FrameContentType,
			AppendFrame(nil, &Frame{Keys: []string{"k"}, Items64: []uint64{1}})[:12], 400, CodeBadFrame},
		{"oversized ndjson", "POST", "/v1/add", "application/x-ndjson",
			bytes.Repeat([]byte("{\"key\":\"a\",\"item\":\"b\"}\n"), 300), 413, CodeTooLarge},
		{"oversized frame", "POST", "/v1/add", FrameContentType,
			AppendFrame(nil, &Frame{Keys: make([]string, 600), Items64: make([]uint64, 600)}), 413, CodeTooLarge},
		{"frame with empty key", "POST", "/v1/add", FrameContentType + "; charset=binary",
			AppendFrame(nil, &Frame{Keys: []string{""}, Items64: []uint64{1}}), 400, CodeBadFrame},
		{"estimate without key", "GET", "/v1/estimate", "", nil, 400, CodeMissingKey},
		{"estimate unknown key", "GET", "/v1/estimate?key=never-seen", "", nil, 404, CodeUnknownKey},
		{"topk bad k", "GET", "/v1/topk?k=zero", "", nil, 400, CodeBadRequest},
		{"topk negative k", "GET", "/v1/topk?k=-3", "", nil, 400, CodeBadRequest},
		{"merge not a snapshot", "POST", "/v1/merge", "application/octet-stream",
			[]byte("junk"), 400, CodeBadSnapshot},
		{"merge counter snapshot", "POST", "/v1/merge", "application/octet-stream",
			mustCounterBlob(t), 400, CodeBadSnapshot},
		{"merge spec mismatch", "POST", "/v1/merge", "application/octet-stream",
			otherBlob, 409, CodeSpecMismatch},
		{"checkpoint without path", "POST", "/v1/checkpoint", "", nil, 409, CodeNoCheckpoint},
		{"method not allowed", "DELETE", "/v1/add", "", nil, 405, ""},
		{"unknown route", "GET", "/v1/nope", "", nil, 404, ""},
	} {
		status, code := apiErrorOf(t, ts, tc.method, tc.path, tc.contentType, tc.body)
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, status, code, tc.wantStatus, tc.wantCode)
		}
	}
}

// TestNDJSONLines: NDJSON is split into lines in place over the request
// body. Blank lines and CRLF endings are skipped, errors name their line,
// and a line may hold up to ndjsonMaxLine bytes — one byte more is a
// typed bad_ndjson 400.
func TestNDJSONLines(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Spec: sbitmap.MustSpec("hll:mbits=512"), MaxBodyBytes: 2 << 20})
	post := func(body []byte) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/add", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, eb
	}
	if status, eb := post([]byte("\r\n{\"key\":\"a\",\"item\":\"x\"}\r\n\n{\"key\":\"b\",\"item\":\"y\"}")); status != http.StatusOK {
		t.Fatalf("CRLF and blank lines: %d %+v", status, eb)
	}
	for _, key := range []string{"a", "b"} {
		if _, ok, err := client.Estimate(context.Background(), key); err != nil || !ok {
			t.Errorf("key %s not ingested: ok=%v err=%v", key, ok, err)
		}
	}
	if status, eb := post([]byte("{\"key\":\"a\",\"item\":\"x\"}\n\nnot json\n")); status != http.StatusBadRequest ||
		eb.Error.Code != CodeBadNDJSON || !strings.HasPrefix(eb.Error.Message, "line 3:") {
		t.Errorf("bad third line: %d %+v, want 400 %s naming line 3", status, eb, CodeBadNDJSON)
	}
	line := func(n int) []byte {
		b := []byte(`{"key":"big","item":"`)
		b = append(b, bytes.Repeat([]byte("x"), n-len(b)-2)...)
		return append(b, "\"}\n"...)
	}
	if status, eb := post(line(ndjsonMaxLine)); status != http.StatusOK {
		t.Errorf("line of %d bytes: %d %+v, want 200", ndjsonMaxLine, status, eb)
	}
	if status, eb := post(line(ndjsonMaxLine + 1)); status != http.StatusBadRequest || eb.Error.Code != CodeBadNDJSON {
		t.Errorf("line of %d bytes: %d %+v, want 400 %s", ndjsonMaxLine+1, status, eb, CodeBadNDJSON)
	}
}

// TestNDJSONEmptyBodyLogsNothing: an NDJSON body with no records (empty,
// or only blank lines) is acked as zero records and appends nothing to
// the WAL — no zero-record frame, so no fsync under FsyncAlways either.
func TestNDJSONEmptyBodyLogsNothing(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Spec:        sbitmap.MustSpec("hll:mbits=512"),
		WALDir:      t.TempDir(),
		FsyncPolicy: wal.FsyncAlways,
	})
	t.Cleanup(func() { srv.Close() })
	post := func(body string) AddResult {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/add", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res AddResult
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, body := range []string{"", "\n\n", " \r\n\t\n"} {
		if res := post(body); res.Records != 0 {
			t.Errorf("body %q: %d records, want 0", body, res.Records)
		}
	}
	if n := srv.wlog.NextLSN(); n != 0 {
		t.Errorf("record-free bodies appended %d WAL records, want 0", n)
	}
	if res := post(`{"key":"a","item":"x"}`); res.Records != 1 {
		t.Errorf("one-record body: %d records, want 1", res.Records)
	}
	if n := srv.wlog.NextLSN(); n != 1 {
		t.Errorf("one-record body appended %d WAL records, want 1", n)
	}
}

func mustCounterBlob(t *testing.T) []byte {
	t.Helper()
	c, err := sbitmap.MustSpec("hll:mbits=512").New()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sbitmap.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestMergeNotMergeable(t *testing.T) {
	// S-bitmaps cannot union-merge; the endpoint must say so, typed.
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1")
	_, ts, _ := newTestServer(t, Config{Spec: spec})
	peer, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	peer.AddString("k", "item")
	blob, err := peer.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	status, code := apiErrorOf(t, ts, "POST", "/v1/merge", "application/octet-stream", blob)
	if status != 422 || code != CodeNotMergeable {
		t.Fatalf("got %d %q, want 422 %q", status, code, CodeNotMergeable)
	}
}

// TestMergeSpecMismatchRefusedFromHeader: a merge body naming another
// spec is refused from its header, before anything it describes is built.
// The 44-byte snapshot of an empty linearcount:mbits=134217728 store
// allocated 16.8 MB per request when the body was decoded first; around
// ServeHTTP it must now cost under 1 MB and still answer 409
// spec_mismatch.
func TestMergeSpecMismatchRefusedFromHeader(t *testing.T) {
	srv, err := New(Config{Spec: sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, err := sbitmap.NewStore[string](sbitmap.MustSpec("linearcount:mbits=134217728"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := peer.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/merge", bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	var eb errorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || rec.Code != 409 || eb.Error.Code != CodeSpecMismatch {
		t.Fatalf("got %d %q (%v), want 409 %q", rec.Code, eb.Error.Code, err, CodeSpecMismatch)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a %d-byte merge body of another spec allocated %d B, want under 1 MB", len(blob), got)
	}
}

// TestMergeForeignCounterRefused: a merge body whose header names the
// store's spec but which holds a counter of another kind is a corrupt
// snapshot, refused whole with 400 bad_snapshot before any key merges.
// The body is crafted in the store container's layout: 50 loglog keys
// and one fm counter, to a WAL-backed loglog server; the live store and
// the one recovered from its WAL keep their one key.
func TestMergeForeignCounterRefused(t *testing.T) {
	spec := sbitmap.MustSpec("loglog:mbits=512")
	cfg := Config{Spec: spec, WALDir: t.TempDir(), FsyncPolicy: wal.FsyncAlways}
	srv, ts, client := newTestServer(t, cfg)
	defer srv.Close()
	if _, err := client.AddNDJSON(context.Background(), []string{"mine"}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	entry := func(payload []byte, key string, kind string) []byte {
		c, err := sbitmap.MustSpec(kind).New()
		if err != nil {
			t.Fatal(err)
		}
		c.AddString(key)
		blob, err := sbitmap.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(key)))
		payload = append(payload, key...)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(blob)))
		return append(payload, blob...)
	}
	text := spec.String()
	body := []byte("SKZ1\x01\x0c\x02") // envelope magic, version 1, store kind; string keys
	body = binary.LittleEndian.AppendUint16(body, uint16(len(text)))
	body = append(body, text...)
	body = binary.LittleEndian.AppendUint64(body, 51)
	for i := range 50 {
		body = entry(body, fmt.Sprintf("peer-%02d", i), "loglog:mbits=512")
	}
	body = entry(body, "foreign", "fm:mbits=512")
	status, code := apiErrorOf(t, ts, "POST", "/v1/merge", "application/octet-stream", body)
	if status != 400 || code != CodeBadSnapshot {
		t.Errorf("got %d %q, want 400 %q", status, code, CodeBadSnapshot)
	}
	if n := srv.Store().Len(); n != 1 {
		t.Errorf("refused merge left %d keys in the store, want 1", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if n := again.Store().Len(); n != 1 {
		t.Errorf("recovered store holds %d keys, want 1", n)
	}
}

func TestIngestQueryFlow(t *testing.T) {
	spec := sbitmap.MustSpec("hll:mbits=2048,seed=9")
	srv, _, client := newTestServer(t, Config{Spec: spec})
	ctx := context.Background()

	// Local twin fed identically: service estimates must be bit-identical.
	local, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var items64 []uint64
	for k := 0; k < 20; k++ {
		for i := 0; i <= k; i++ {
			keys = append(keys, fmt.Sprintf("key-%02d", k))
			items64 = append(items64, uint64(k)<<32|uint64(i))
		}
	}
	res, err := client.AddFrame(ctx, &Frame{Keys: keys, Items64: items64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != len(keys) {
		t.Fatalf("AddBatch64 reported %d records, sent %d", res.Records, len(keys))
	}
	local.AddBatch64(keys, items64)

	// NDJSON and string-frame paths land on the same counters.
	sKeys := []string{"key-00", "key-19"}
	sItems := []string{"extra-a", "extra-b"}
	if _, err := client.AddNDJSON(ctx, sKeys, sItems); err != nil {
		t.Fatal(err)
	}
	local.AddBatchString(sKeys, sItems)
	if _, err := client.AddFrame(ctx, &Frame{Keys: sKeys, ItemsString: []string{"extra-c", "extra-d"}}); err != nil {
		t.Fatal(err)
	}
	local.AddBatchString(sKeys, []string{"extra-c", "extra-d"})

	for k := 0; k < 20; k++ {
		key := fmt.Sprintf("key-%02d", k)
		got, ok, err := client.Estimate(ctx, key)
		if err != nil || !ok {
			t.Fatalf("%s: %v ok=%v", key, err, ok)
		}
		want, _ := local.Estimate(key)
		if got != want {
			t.Errorf("%s: service %v != local %v", key, got, want)
		}
	}
	if _, ok, err := client.Estimate(ctx, "never"); err != nil || ok {
		t.Fatalf("unknown key: ok=%v err=%v", ok, err)
	}

	// A huge k is clamped to the live key count, never allocated.
	all, err := client.TopK(ctx, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != srv.Store().Len() {
		t.Errorf("topk(1<<30) returned %d entries, store holds %d", len(all), srv.Store().Len())
	}

	top, err := client.TopK(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	localTop := local.TopK(3)
	if len(top) != 3 {
		t.Fatalf("topk returned %d entries", len(top))
	}
	for i := range top {
		if top[i].Key != localTop[i].Key || top[i].Estimate != localTop[i].Estimate {
			t.Errorf("topk[%d]: service %+v != local %+v", i, top[i], localTop[i])
		}
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := int64(len(keys) + 2*len(sKeys))
	if stats.Keys != srv.Store().Len() || stats.Records != wantRecords ||
		stats.AddRequests != 3 || stats.Spec != spec.String() ||
		stats.SizeBits <= 0 || stats.FootprintBytes <= 0 || stats.Queries == 0 {
		t.Errorf("stats = %+v", stats)
	}

	if err := client.Healthz(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
}

func TestMergeFlow(t *testing.T) {
	spec := sbitmap.MustSpec("hll:mbits=1024,seed=3")
	_, _, client := newTestServer(t, Config{Spec: spec})
	ctx := context.Background()

	if _, err := client.AddNDJSON(ctx, []string{"shared", "mine"}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	// An edge agent's store: overlapping and new keys.
	edge, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddString("shared", "a") // duplicate item: union must not double count
	edge.AddString("shared", "c")
	edge.AddString("theirs", "d")
	blob, err := edge.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Merge(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeysMerged != 2 {
		t.Errorf("merged %d keys, want 2", res.KeysMerged)
	}

	// The union twin: everything both sides saw, through one store.
	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	twin.AddString("shared", "a")
	twin.AddString("mine", "b")
	twin.AddString("shared", "a")
	twin.AddString("shared", "c")
	twin.AddString("theirs", "d")
	for _, key := range []string{"shared", "mine", "theirs"} {
		got, ok, err := client.Estimate(ctx, key)
		if err != nil || !ok {
			t.Fatalf("%s: %v", key, err)
		}
		want, _ := twin.Estimate(key)
		if got != want {
			t.Errorf("%s: merged estimate %v != union twin %v", key, got, want)
		}
	}
}

func TestCheckpointRecovery(t *testing.T) {
	// Checkpoint, "crash" (drop the server), restart from the directory:
	// estimates must be bit-identical, and counting must continue.
	dir := t.TempDir()
	cfg := Config{
		Spec:          sbitmap.MustSpec("sbitmap:n=1e4,eps=0.05,seed=11"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
	}
	srv, _, client := newTestServer(t, cfg)
	ctx := context.Background()

	var keys, items []string
	for k := 0; k < 50; k++ {
		for i := 0; i <= k%7; i++ {
			keys = append(keys, fmt.Sprintf("flow-%03d", k))
			items = append(items, fmt.Sprintf("pkt-%d-%d", k, i))
		}
	}
	if _, err := client.AddFrame(ctx, &Frame{Keys: keys, ItemsString: items}); err != nil {
		t.Fatal(err)
	}
	info, err := client.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Keys != 50 || info.Bytes <= 0 || info.StripesWritten <= 0 || info.Incremental {
		t.Fatalf("checkpoint info %+v", info)
	}
	before := map[string]float64{}
	srv.Store().ForEach(func(key string, c sbitmap.Counter) bool {
		before[key] = c.Estimate()
		return true
	})

	// "Restart": a brand-new server over the same config.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.RestoredKeys() != 50 {
		t.Fatalf("restored %d keys, want 50", srv2.RestoredKeys())
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := NewClient(ts2.URL)
	for key, want := range before {
		got, ok, err := client2.Estimate(ctx, key)
		if err != nil || !ok {
			t.Fatalf("%s after restart: %v", key, err)
		}
		if got != want {
			t.Errorf("%s: estimate %v after restart, was %v", key, got, want)
		}
	}
	// The restored store keeps counting (same seed restored via spec).
	if _, err := client2.AddNDJSON(ctx, []string{"flow-000"}, []string{"fresh-item"}); err != nil {
		t.Fatal(err)
	}
	stats, err := client2.Stats(ctx)
	if err != nil || stats.RestoredKeys != 50 {
		t.Fatalf("stats after restart: %+v, %v", stats, err)
	}
}

func TestCheckpointSpecMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := Config{Spec: sbitmap.MustSpec("hll:mbits=512"), CheckpointDir: dir}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Store().AddString("k", "v")
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cfg.Spec = sbitmap.MustSpec("hll:mbits=1024")
	if _, err := New(cfg); err == nil || !errors.Is(err, ErrCheckpointSpecMismatch) ||
		!strings.Contains(err.Error(), "spec") {
		t.Fatalf("restart under a different spec: %v", err)
	}
	// A corrupt checkpoint must refuse to start, not count from scratch.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Spec = sbitmap.MustSpec("hll:mbits=512")
	if _, err := New(cfg); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("corrupt manifest: %v", err)
	}
}

func TestCheckpointAtomicTmp(t *testing.T) {
	// No tmp file — stripe, manifest, or otherwise — survives a
	// successful checkpoint pass, and obsolete stripe snapshots from
	// earlier generations are garbage-collected.
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := Config{
		Spec:          sbitmap.MustSpec("hll:mbits=512"),
		CheckpointDir: dir,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		srv.Store().AddString("k", fmt.Sprintf("v%d", i))
		if _, err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("tmp files left behind: %v", tmps)
	}
	// "k" lives in one stripe and was rewritten three times; GC must have
	// kept exactly the one snapshot the manifest references.
	snaps, err := filepath.Glob(filepath.Join(dir, "stripe-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Errorf("stale stripe snapshots not collected: %v", snaps)
	}
	if err := srv.Store().Merge(srv.Store()); err != nil {
		// Self-merge is a no-op; just exercising the API surface here.
		t.Errorf("self merge: %v", err)
	}
}
