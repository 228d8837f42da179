package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	sbitmap "repro"
)

// flaky wraps a real Server handler, failing the first n requests in a
// caller-chosen way before letting traffic through — the transient-fault
// shapes WithRetry exists for.
type flaky struct {
	inner    http.Handler
	failures atomic.Int64
	attempts atomic.Int64
	n        int64
	fail     func(w http.ResponseWriter, r *http.Request)
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.attempts.Add(1)
	if f.failures.Add(1) <= f.n {
		f.fail(w, r)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func newFlakyServer(t *testing.T, n int64, fail func(http.ResponseWriter, *http.Request)) (*flaky, *Server, string) {
	t.Helper()
	srv, err := New(Config{Spec: sbitmap.MustSpec("hll:mbits=1024,seed=2")})
	if err != nil {
		t.Fatal(err)
	}
	f := &flaky{inner: srv, n: n, fail: fail}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, srv, ts.URL
}

func fail500(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "transient", http.StatusInternalServerError)
}

// failDrop kills the TCP connection without an HTTP response: the client
// sees a transport error (EOF/reset), the retryable shape a restarting
// peer produces.
func failDrop(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

func TestClientRetry5xx(t *testing.T) {
	f, _, url := newFlakyServer(t, 2, fail500)
	c := NewClient(url, WithRetry(3, time.Millisecond))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("stats through 2 transient 500s: %v", err)
	}
	if got := f.attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestClientRetryTransportError(t *testing.T) {
	f, srv, url := newFlakyServer(t, 2, failDrop)
	c := NewClient(url, WithRetry(3, time.Millisecond))
	res, err := c.AddFrame(context.Background(), &Frame{Keys: []string{"k1", "k2"}, Items64: []uint64{1, 2}})
	if err != nil {
		t.Fatalf("ingest through 2 dropped connections: %v", err)
	}
	if res.Records != 2 || srv.Store().Len() != 2 {
		t.Fatalf("records=%d, store keys=%d", res.Records, srv.Store().Len())
	}
	if got := f.attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestClientRetryOffByDefault(t *testing.T) {
	f, _, url := newFlakyServer(t, 1, fail500)
	c := NewClient(url)
	var apiErr *APIError
	if _, err := c.Stats(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("want the 500 surfaced, got %v", err)
	}
	if got := f.attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (retry must be opt-in)", got)
	}
}

func TestClientRetryNot4xx(t *testing.T) {
	// 4xx is the request's fault: retrying re-sends the same wrong bytes.
	f, _, url := newFlakyServer(t, 0, nil)
	c := NewClient(url, WithRetry(3, time.Millisecond))
	var apiErr *APIError
	_, _, err := c.Estimate(context.Background(), "") // missing key → 400
	if !errors.As(err, &apiErr) || apiErr.Code != CodeMissingKey {
		t.Fatalf("want typed %s, got %v", CodeMissingKey, err)
	}
	if got := f.attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx is not retryable)", got)
	}
}

func TestClientRetryExhausted(t *testing.T) {
	f, _, url := newFlakyServer(t, 100, fail500)
	c := NewClient(url, WithRetry(2, time.Millisecond))
	var apiErr *APIError
	if _, err := c.Stats(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("want the final 500 after exhausting retries, got %v", err)
	}
	if got := f.attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

func TestClientRetryContextAbortsBackoff(t *testing.T) {
	_, _, url := newFlakyServer(t, 100, fail500)
	// 10 retries at 100ms base would back off for over a minute; the
	// context must cut that short.
	c := NewClient(url, WithRetry(10, 100*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("stats against a permanently failing server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored the context for %v", elapsed)
	}
}
