package wire

import (
	"net"
	"testing"
	"time"

	sbitmap "repro"
	"repro/internal/server"
)

const windowedTestSpec = "hll:mbits=1024,seed=7/windowed(width=1s,ring=4)"

// wtime builds the timestamp landing in sub-window widx of the given
// width (its midpoint).
func wtime(widx int64, width time.Duration) time.Time {
	return time.Unix(0, widx*int64(width)+int64(width)/2)
}

// TestWireTimestampedBitIdentical: version-2 (timestamped) frames pushed
// over TCP must leave a windowed server's store — rings, watermark, and
// every window estimate — bit-identical to a local twin fed the same
// records through the Store's own At entrypoints.
func TestWireTimestampedBitIdentical(t *testing.T) {
	const width = time.Second
	srv, err := server.New(server.Config{Spec: sbitmap.MustSpec(windowedTestSpec)})
	if err != nil {
		t.Fatal(err)
	}
	ws := startWireServer(t, srv)
	twin, err := sbitmap.NewStore[string](sbitmap.MustSpec(windowedTestSpec))
	if err != nil {
		t.Fatal(err)
	}
	keys, items64, itemsS := wireWorkload(300, 6000, 5)

	c := NewClient(ws.Addr().String())
	defer c.Close()
	// Pipelined timestamped frames walking forward through sub-windows
	// 40..51, with an occasional one-window step back (in-horizon
	// out-of-order) and a deep jump back (the late path).
	widxFor := func(batch int) int64 {
		widx := int64(40 + batch/2)
		switch batch % 10 {
		case 3:
			widx-- // one back: placed in its own sub-window
		case 7:
			widx -= 20 // far back: folds into the watermark, counts late
		}
		return widx
	}
	for i, batch := 0, 0; i < len(keys); i, batch = i+250, batch+1 {
		end := min(i+250, len(keys))
		ts := wtime(widxFor(batch), width)
		if batch%2 == 0 {
			if err := c.SendFrame(&server.Frame{Keys: keys[i:end], Items64: items64[i:end], TSNanos: ts.UnixNano(), HasTS: true}); err != nil {
				t.Fatal(err)
			}
			twin.AddBatch64At(ts, keys[i:end], items64[i:end])
		} else {
			if err := c.SendFrame(&server.Frame{Keys: keys[i:end], ItemsString: itemsS[i:end], TSNanos: ts.UnixNano(), HasTS: true}); err != nil {
				t.Fatal(err)
			}
			twin.AddBatchStringAt(ts, keys[i:end], itemsS[i:end])
		}
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	assertSameState(t, snapshotKeys(t, srv.Store()), snapshotKeys(t, twin))
	sw, sl, sok := srv.Store().WindowState()
	tw, tl, tok := twin.WindowState()
	if sw != tw || sl != tl || sok != tok {
		t.Fatalf("window state: server (%d,%d,%v), twin (%d,%d,%v)", sw, sl, sok, tw, tl, tok)
	}
	if sl == 0 {
		t.Fatal("workload produced no late records; the late path went unexercised")
	}
	var allKeys []string
	srv.Store().ForEach(func(k string, _ sbitmap.Counter) bool {
		allKeys = append(allKeys, k)
		return true
	})
	if len(allKeys) == 0 {
		t.Fatal("no keys to probe")
	}
	for _, k := range allKeys {
		for _, span := range []time.Duration{width, 4 * width} {
			got, gok, gerr := srv.Store().EstimateWindow(k, span)
			want, wok, werr := twin.EstimateWindow(k, span)
			if got != want || gok != wok || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s span %v: server (%+v,%v,%v), twin (%+v,%v,%v)", k, span, got, gok, gerr, want, wok, werr)
			}
		}
	}
}

// startWireServer wraps an existing server.Server in a wire listener on
// a random loopback port.
func startWireServer(t *testing.T, srv *server.Server) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := Serve(ln, srv)
	t.Cleanup(func() { ws.Close() })
	return ws
}
