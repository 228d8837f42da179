package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/rules"
)

// Client is the Go face of the counting service: thin typed wrappers over
// the HTTP API, one method per endpoint, mirroring the Store's own method
// names where the semantics match. It is safe for concurrent use (the
// underlying http.Client pools connections).
type Client struct {
	base string
	hc   *http.Client

	// Retry policy (off unless WithRetry): up to retries re-sends after a
	// transient failure, sleeping retryBase<<attempt between tries.
	retries   int
	retryBase time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetry enables bounded retry on transient failures: transport errors
// (connection refused/reset, broken pipe — anything the http.Client
// returns instead of a response) and 5xx responses. Up to retries extra
// attempts are made, with exponential backoff starting at base
// (base, 2·base, 4·base, ...), aborted early if the request context is
// done. Safe for every endpoint: request bodies are byte slices, so a
// re-send transmits identical bytes, and all endpoints are idempotent or
// ingest-once-per-frame at worst (a retried /v1/add whose first attempt
// actually reached the store re-adds the same records — set semantics
// make that a no-op on counter state). Off by default.
func WithRetry(retries int, base time.Duration) ClientOption {
	return func(c *Client) { c.retries, c.retryBase = retries, base }
}

// NewClient returns a client for the service at base, e.g.
// "http://127.0.0.1:8287".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// do issues one request (retrying per the WithRetry policy) and decodes
// the JSON response into out (when non-nil). Any non-2xx response is
// returned as an *APIError carrying the service's typed code.
func (c *Client) do(ctx context.Context, method, path string, contentType string, body []byte, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, path, contentType, body, out)
		if err == nil || attempt >= c.retries || !retryable(err) {
			return err
		}
		// Bounded backoff; give up immediately once the caller's context
		// is done (its error is more useful than the transport's).
		select {
		case <-time.After(c.retryBase << attempt):
		case <-ctx.Done():
			return err
		}
	}
}

// retryable reports whether an attempt's failure is worth re-sending: a
// transport-level error (no response arrived — refused, reset, EOF) or a
// 5xx (the server existed but failed; 4xx is the request's fault and will
// fail identically). Context cancellation is terminal.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500
	}
	return true
}

func (c *Client) doOnce(ctx context.Context, method, path string, contentType string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		apiErr := &APIError{Status: resp.StatusCode, Code: CodeBadRequest}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Code != "" {
			apiErr.Code, apiErr.Message = eb.Error.Code, eb.Error.Message
		} else {
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		return apiErr
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) // drain so the connection can be reused
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// AddNDJSON ingests (keys[i], items[i]) records through the NDJSON ingest
// format — the debuggable path (curl-able, line-oriented). Panics if the
// slice lengths differ.
func (c *Client) AddNDJSON(ctx context.Context, keys, items []string) (AddResult, error) {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("server: Client.AddNDJSON with %d keys and %d items", len(keys), len(items)))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Unescaped <, > and & keep every line on the server's fast path,
	// which declines any escape.
	enc.SetEscapeHTML(false)
	for i := range keys {
		if err := enc.Encode(ndjsonRecord{Key: keys[i], Item: items[i]}); err != nil {
			return AddResult{}, err
		}
	}
	var res AddResult
	err := c.do(ctx, http.MethodPost, "/v1/add", "application/x-ndjson", buf.Bytes(), &res)
	return res, err
}

// AddFrame ingests one batch through the compact binary frame — the
// throughput path, decoding straight onto the Store's batch methods on
// the server. f's item type and timestamp travel as data (see
// AppendFrame): a timestamped frame files every record into its
// sub-window on a windowed server (plain servers ignore it). Panics if
// f's keys and items differ in length.
func (c *Client) AddFrame(ctx context.Context, f *Frame) (AddResult, error) {
	var res AddResult
	err := c.do(ctx, http.MethodPost, "/v1/add", FrameContentType, AppendFrame(nil, f), &res)
	return res, err
}

// Estimate returns key's distinct-count estimate; ok is false (with a nil
// error) if the server has never seen the key — mirroring Store.Estimate.
func (c *Client) Estimate(ctx context.Context, key string) (estimate float64, ok bool, err error) {
	var res EstimateResult
	err = c.do(ctx, http.MethodGet, "/v1/estimate?key="+url.QueryEscape(key), "", nil, &res)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Code == CodeUnknownKey {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return res.Estimate, true, nil
}

// EstimateWindow returns key's distinct-count estimate over the trailing
// span, via /v1/estimate?window=. ok is false (with a nil error) if the
// server has never seen the key; a server without the windowed(...) spec
// modifier, or a span wider than its retention, returns an *APIError
// with code CodeWindowNotConf or CodeBadWindow respectively. The full
// EstimateResult carries the covered interval and the tumbling marker.
func (c *Client) EstimateWindow(ctx context.Context, key string, span time.Duration) (EstimateResult, bool, error) {
	var res EstimateResult
	err := c.do(ctx, http.MethodGet,
		"/v1/estimate?key="+url.QueryEscape(key)+"&window="+url.QueryEscape(span.String()), "", nil, &res)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Code == CodeUnknownKey {
		return EstimateResult{}, false, nil
	}
	if err != nil {
		return EstimateResult{}, false, err
	}
	return res, true, nil
}

// EstimateMulti returns estimates for many keys in one request (repeated
// key= parameters, one batched store pass server-side). The result has
// one entry per requested key, in request order; a key the server has
// never seen comes back with OK false, not an error.
func (c *Client) EstimateMulti(ctx context.Context, keys []string) ([]MultiEstimateEntry, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	q := make(url.Values, 1)
	q["key"] = keys
	if len(keys) == 1 {
		// The server answers a single key= with the scalar shape; force
		// the batched shape by asking twice and dropping the duplicate.
		q["key"] = []string{keys[0], keys[0]}
	}
	var res MultiEstimateResult
	err := c.do(ctx, http.MethodGet, "/v1/estimate?"+q.Encode(), "", nil, &res)
	if err != nil {
		return nil, err
	}
	return res.Results[:len(keys)], nil
}

// PutRule installs (or replaces) a standing query. Validation failures
// come back as an *APIError with code CodeBadRule (or CodeWindowNotConf
// for a windowed rule against an unwindowed server).
func (c *Client) PutRule(ctx context.Context, spec rules.Spec) (rules.Spec, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return rules.Spec{}, err
	}
	var res rules.Spec
	err = c.do(ctx, http.MethodPut, "/v1/rules", "application/json", body, &res)
	return res, err
}

// Rules lists every installed rule, sorted by ID.
func (c *Client) Rules(ctx context.Context) ([]rules.Spec, error) {
	var res RulesResult
	err := c.do(ctx, http.MethodGet, "/v1/rules", "", nil, &res)
	return res.Rules, err
}

// Rule reads one installed rule by ID; an unknown ID is an *APIError
// with code CodeUnknownRule.
func (c *Client) Rule(ctx context.Context, id string) (rules.Spec, error) {
	var res rules.Spec
	err := c.do(ctx, http.MethodGet, "/v1/rules/"+url.PathEscape(id), "", nil, &res)
	return res, err
}

// DeleteRule removes a rule; an unknown ID is an *APIError with code
// CodeUnknownRule.
func (c *Client) DeleteRule(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/rules/"+url.PathEscape(id), "", nil, nil)
}

// Alerts returns up to limit recent alerts, newest first (limit <= 0
// returns everything the server's history ring holds).
func (c *Client) Alerts(ctx context.Context, limit int) ([]rules.Alert, error) {
	path := "/v1/alerts"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var res AlertsResult
	err := c.do(ctx, http.MethodGet, path, "", nil, &res)
	return res.Alerts, err
}

// StreamAlerts consumes the live SSE alert feed, calling fn for every
// alert until fn returns false, the context is done, or the stream
// fails. replay > 0 asks the server to prepend that many recent
// historical alerts (oldest first) before the live feed; the
// subscription window overlaps the replay, so fn may see an alert ID
// twice — dedup by ID if exactly-once matters. Returns nil when fn
// stopped the stream, ctx.Err() on cancellation, and the transport error
// otherwise. StreamAlerts does not retry; a consumer that must survive
// reconnects wraps it and passes the last seen ID's worth of replay.
func (c *Client) StreamAlerts(ctx context.Context, replay int, fn func(rules.Alert) bool) error {
	path := "/v1/alerts/stream"
	if replay > 0 {
		path += "?replay=" + strconv.Itoa(replay)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		apiErr := &APIError{Status: resp.StatusCode, Code: CodeBadRequest}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &eb) == nil && eb.Error.Code != "" {
			apiErr.Code, apiErr.Message = eb.Error.Code, eb.Error.Message
		} else {
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		return apiErr
	}
	// Minimal SSE reader: "data:" lines carry the alert JSON, a blank
	// line ends an event, ":" lines are keepalive comments. The id: and
	// event: fields are redundant with the payload and skipped.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if len(data) > 0 {
				var a rules.Alert
				if err := json.Unmarshal(data, &a); err != nil {
					return fmt.Errorf("server: alert stream: %w", err)
				}
				data = data[:0]
				if !fn(a) {
					return nil
				}
			}
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimSpace(line[len("data:"):])...)
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return io.ErrUnexpectedEOF // server closed a live stream
}

// TopK returns the server's k keys with the largest estimates, in
// descending order.
func (c *Client) TopK(ctx context.Context, k int) ([]Entry, error) {
	var res TopKResult
	err := c.do(ctx, http.MethodGet, "/v1/topk?k="+strconv.Itoa(k), "", nil, &res)
	return res.Top, err
}

// Stats returns store totals and live service metrics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var res Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, &res)
	return res, err
}

// Merge ships a Store snapshot envelope (Store.MarshalBinary bytes from a
// peer or edge agent) for key-wise union merge into the server's store.
func (c *Client) Merge(ctx context.Context, snapshot []byte) (MergeResult, error) {
	var res MergeResult
	err := c.do(ctx, http.MethodPost, "/v1/merge", "application/octet-stream", snapshot, &res)
	return res, err
}

// Checkpoint asks the server to write a durable snapshot now.
func (c *Client) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	var res CheckpointInfo
	err := c.do(ctx, http.MethodPost, "/v1/checkpoint", "", nil, &res)
	return res, err
}

// Healthz probes liveness over the plain-text /healthz endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil)
}

// Health probes liveness over /v1/healthz, returning the node's status,
// spec, role, and uptime — the cluster prober's endpoint.
func (c *Client) Health(ctx context.Context) (HealthResult, error) {
	var res HealthResult
	err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, &res)
	return res, err
}

// Cluster returns the node's view of the cluster topology (role, peer
// list, aggregator) — enough for a client to bootstrap a cluster.Ring
// from any one node.
func (c *Client) Cluster(ctx context.Context) (ClusterInfo, error) {
	var res ClusterInfo
	err := c.do(ctx, http.MethodGet, "/v1/cluster", "", nil, &res)
	return res, err
}

// Base returns the base URL the client was built with.
func (c *Client) Base() string { return c.base }
