package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Span names. A request is one root span — the whole client-side call —
// whose children split it at the layer boundaries the client can see:
// write (request bytes handed to the kernel), wait (until the first byte
// of the answer), read (the rest of the answer). Roots without children
// (idle) cover time the client spends waiting on purpose.
const (
	spanNone uint8 = iota
	spanWrite
	spanWait
	spanRead
	spanWireFrame
	spanHTTPIngest
	spanHTTPEstimate
	spanHTTPEstimateBatch
	spanHTTPEstimateWindow
	spanHTTPStats
	spanHTTPTopK
	spanHTTPCheckpoint
	spanIdle
)

var spanNames = []string{
	spanNone:               "",
	spanWrite:              "write",
	spanWait:               "wait",
	spanRead:               "read",
	spanWireFrame:          "wire.frame",
	spanHTTPIngest:         "http.ingest",
	spanHTTPEstimate:       "http.estimate",
	spanHTTPEstimateBatch:  "http.estimate_batch",
	spanHTTPEstimateWindow: "http.estimate_window",
	spanHTTPStats:          "http.stats",
	spanHTTPTopK:           "http.topk",
	spanHTTPCheckpoint:     "http.checkpoint",
	spanIdle:               "idle",
}

// span is one recorded interval. Spans of one request share req; parent
// names the enclosing span within that request (spanNone for the root).
type span struct {
	req          uint64
	start, end   int64 // nanoseconds since the run's time base
	name, parent uint8
}

// tracer records the spans of one connection. It is confined to the
// goroutine driving that connection; untraced phases run with a nil
// tracer and skip recording.
type tracer struct {
	base  time.Time
	conn  uint64
	seq   uint64
	spans []span
}

func newTracer(base time.Time, conn int) *tracer {
	return &tracer{base: base, conn: uint64(conn)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// record adds one request, times in nanoseconds since the base: the root
// [start, end] and its write, wait and read children. read is omitted
// when first == end.
func (t *tracer) record(root uint8, start, wrote, first, end int64) {
	t.seq++
	req := t.conn<<40 | t.seq
	t.spans = append(t.spans,
		span{req: req, start: start, end: end, name: root},
		span{req: req, start: start, end: wrote, name: spanWrite, parent: root},
		span{req: req, start: wrote, end: first, name: spanWait, parent: root})
	if end > first {
		t.spans = append(t.spans, span{req: req, start: first, end: end, name: spanRead, parent: root})
	}
}

// recordIdle adds a childless root span; a nil tracer records nothing.
func (t *tracer) recordIdle(start, end time.Time) {
	if t == nil {
		return
	}
	t.seq++
	t.spans = append(t.spans, span{req: t.conn<<40 | t.seq, start: t.ns(start), end: t.ns(end), name: spanIdle})
}

// spanSum folds recorded spans into the per-layer split of the client's
// time: for ingest requests the write and wait (wait + read) children,
// for every other root its whole duration. The children tile their root,
// so what no span covers is the client's own loop between requests.
type spanSum struct {
	ingestWrite, ingestWait time.Duration
	other                   time.Duration
	// estimate sums single-key estimate roots, for the HTTP residual.
	estimate  time.Duration
	estimates int
	total     time.Duration // every root span
}

// summarize folds the spans that start in [t0, t1), in nanoseconds since
// the time base.
func summarize(tracers []*tracer, t0, t1 int64) spanSum {
	var s spanSum
	for _, t := range tracers {
		for _, sp := range t.spans {
			if sp.start < t0 || sp.start >= t1 {
				continue
			}
			d := time.Duration(sp.end - sp.start)
			ingest := func(n uint8) bool { return n == spanWireFrame || n == spanHTTPIngest }
			switch {
			case sp.parent == spanNone:
				s.total += d
				if !ingest(sp.name) {
					s.other += d
				}
				if sp.name == spanHTTPEstimate || sp.name == spanHTTPEstimateWindow {
					s.estimate += d
					s.estimates++
				}
			case ingest(sp.parent):
				if sp.name == spanWrite {
					s.ingestWrite += d
				} else {
					s.ingestWait += d
				}
			}
		}
	}
	return s
}

// writeSpans writes every span as JSON lines: a header object, then one
// array per span, [request id, name, parent, start ns, end ns], times
// relative to the run's start.
func writeSpans(path, workload string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr, _ := json.Marshal(map[string]any{
		"schema":   "sketchd-bench-spans/v1",
		"workload": workload,
		"fields":   []string{"request", "name", "parent", "start_ns", "end_ns"},
	})
	w.Write(append(hdr, '\n'))
	var line []byte
	for _, t := range tracers {
		for _, sp := range t.spans {
			line = append(line[:0], '[')
			line = strconv.AppendUint(line, sp.req, 10)
			line = fmt.Appendf(line, ",%q,%q,", spanNames[sp.name], spanNames[sp.parent])
			line = strconv.AppendInt(line, sp.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, sp.end, 10)
			line = append(line, "]\n"...)
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
