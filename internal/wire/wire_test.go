package wire

import (
	"context"
	"encoding"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"sync"
	"testing"

	sbitmap "repro"
	"repro/internal/mallocs"
	"repro/internal/server"
	"repro/internal/xrand"
)

const testSpec = "sbitmap:n=1e4,eps=0.1,seed=7"

// newWireServer starts a server.Server with a wire listener on a random
// loopback port and tears both down with the test.
func newWireServer(t *testing.T) (*server.Server, *Server) {
	t.Helper()
	srv, err := server.New(server.Config{Spec: sbitmap.MustSpec(testSpec)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := Serve(ln, srv)
	t.Cleanup(func() { ws.Close() })
	return srv, ws
}

// snapshotKeys marshals every counter in a store by key — the
// bit-identity currency of these tests.
func snapshotKeys(t *testing.T, st *sbitmap.Store[string]) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, st.Len())
	st.ForEach(func(k string, c sbitmap.Counter) bool {
		blob, err := c.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatalf("marshal key %q: %v", k, err)
		}
		out[k] = blob
		return true
	})
	return out
}

func assertSameState(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("key counts differ: %d vs %d", len(got), len(want))
	}
	for k, wb := range want {
		gb, ok := got[k]
		if !ok {
			t.Fatalf("key %q missing", k)
		}
		if string(gb) != string(wb) {
			t.Fatalf("key %q: counter state diverged", k)
		}
	}
}

// wireWorkload builds a keyed workload with both duplicate items and
// duplicate keys, deterministically.
func wireWorkload(nKeys, nRecs int, seed uint64) (keys []string, items64 []uint64, itemsS []string) {
	keys = make([]string, nRecs)
	items64 = make([]uint64, nRecs)
	itemsS = make([]string, nRecs)
	for i := 0; i < nRecs; i++ {
		k := xrand.Mix64(seed+uint64(i)) % uint64(nKeys)
		v := xrand.Mix64(seed^uint64(i)) % 5000
		keys[i] = fmt.Sprintf("flow-%04x", k)
		items64[i] = v
		itemsS[i] = fmt.Sprintf("ip-%d", v)
	}
	return
}

// TestWireBitIdenticalToLocalStore: records pushed over TCP in frames
// must leave the server's store bit-identical to a local twin store fed
// the same records in the same order — uint64 and string items, across
// many frames on one connection.
func TestWireBitIdenticalToLocalStore(t *testing.T) {
	srv, ws := newWireServer(t)
	twin, err := sbitmap.NewStore[string](sbitmap.MustSpec(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	keys, items64, itemsS := wireWorkload(300, 6000, 1)

	c := NewClient(ws.Addr().String())
	defer c.Close()
	var wantChanged, gotChanged int
	for i := 0; i < len(keys); i += 500 {
		end := min(i+500, len(keys))
		ch, err := c.AddFrame(&server.Frame{Keys: keys[i:end], Items64: items64[i:end]})
		if err != nil {
			t.Fatal(err)
		}
		gotChanged += ch
		wantChanged += twin.AddBatch64(keys[i:end], items64[i:end])
	}
	ch, err := c.AddFrame(&server.Frame{Keys: keys, ItemsString: itemsS})
	if err != nil {
		t.Fatal(err)
	}
	gotChanged += ch
	wantChanged += twin.AddBatchString(keys, itemsS)

	if gotChanged != wantChanged {
		t.Fatalf("acked changed %d, twin changed %d", gotChanged, wantChanged)
	}
	assertSameState(t, snapshotKeys(t, srv.Store()), snapshotKeys(t, twin))
}

// TestWireBitIdenticalToHTTP: the same frames over the wire listener and
// over POST /v1/add must produce bit-identical stores — the wire path is
// an alternative transport, not an alternative semantics.
func TestWireBitIdenticalToHTTP(t *testing.T) {
	wireSrv, ws := newWireServer(t)
	httpSrv, err := server.New(server.Config{Spec: sbitmap.MustSpec(testSpec)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpSrv)
	defer ts.Close()
	hc := server.NewClient(ts.URL)

	keys, items64, itemsS := wireWorkload(200, 4000, 9)
	wc := NewClient(ws.Addr().String())
	defer wc.Close()
	ctx := context.Background()
	for i := 0; i < len(keys); i += 1000 {
		end := min(i+1000, len(keys))
		wch, err := wc.AddFrame(&server.Frame{Keys: keys[i:end], Items64: items64[i:end]})
		if err != nil {
			t.Fatal(err)
		}
		hres, err := hc.AddFrame(ctx, &server.Frame{Keys: keys[i:end], Items64: items64[i:end]})
		if err != nil {
			t.Fatal(err)
		}
		if wch != hres.Changed {
			t.Fatalf("batch at %d: wire changed %d, http changed %d", i, wch, hres.Changed)
		}
	}
	if _, err := wc.AddFrame(&server.Frame{Keys: keys[:500], ItemsString: itemsS[:500]}); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.AddFrame(ctx, &server.Frame{Keys: keys[:500], ItemsString: itemsS[:500]}); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, snapshotKeys(t, wireSrv.Store()), snapshotKeys(t, httpSrv.Store()))
}

// TestWirePipelined: Send/Drain must ack every frame and leave the same
// state as the synchronous path, with the changed total matching a twin.
func TestWirePipelined(t *testing.T) {
	srv, ws := newWireServer(t)
	twin, err := sbitmap.NewStore[string](sbitmap.MustSpec(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	keys, items64, _ := wireWorkload(100, 5000, 3)
	c := NewClient(ws.Addr().String())
	defer c.Close()
	want := 0
	// 200 frames of 25 records: deep pipelining, crosses clientWindow.
	for i := 0; i < len(keys); i += 25 {
		end := i + 25
		if err := c.SendFrame(&server.Frame{Keys: keys[i:end], Items64: items64[i:end]}); err != nil {
			t.Fatal(err)
		}
		want += twin.AddBatch64(keys[i:end], items64[i:end])
	}
	got, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pipelined changed %d, twin %d", got, want)
	}
	assertSameState(t, snapshotKeys(t, srv.Store()), snapshotKeys(t, twin))
}

// TestWireBadFramePoisonsOnlyItsConnection: a malformed frame earns
// AckError and a closed connection — while a second connection opened
// earlier keeps working, new connections are accepted, and the store
// retains exactly the state from the good frames.
func TestWireBadFramePoisonsOnlyItsConnection(t *testing.T) {
	srv, ws := newWireServer(t)
	good := NewClient(ws.Addr().String())
	defer good.Close()
	if _, err := good.AddFrame(&server.Frame{Keys: []string{"k1"}, Items64: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	bad := NewClient(ws.Addr().String())
	defer bad.Close()
	if _, err := bad.AddFrame(&server.Frame{Keys: []string{"k2"}, Items64: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	// Raw garbage after a valid length prefix on the bad connection.
	raw, err := net.Dial("tcp", ws.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var msg [4]byte
	binary.LittleEndian.PutUint32(msg[:], 16)
	raw.Write(msg[:])
	raw.Write([]byte("not an SBF1 frame"))
	var ack [8]byte
	if _, err := io.ReadFull(raw, ack[:]); err != nil {
		t.Fatalf("reading error ack: %v", err)
	}
	if binary.LittleEndian.Uint64(ack[:]) != AckError {
		t.Fatalf("ack = %#x, want AckError", binary.LittleEndian.Uint64(ack[:]))
	}
	if _, err := io.ReadFull(raw, ack[:1]); err == nil {
		t.Fatal("connection still open after rejected frame")
	}

	// The earlier connection is unaffected; so are new ones.
	if _, err := good.AddFrame(&server.Frame{Keys: []string{"k3"}, Items64: []uint64{3}}); err != nil {
		t.Fatalf("good connection poisoned: %v", err)
	}
	fresh := NewClient(ws.Addr().String())
	defer fresh.Close()
	if _, err := fresh.AddFrame(&server.Frame{Keys: []string{"k4"}, ItemsString: []string{"x"}}); err != nil {
		t.Fatalf("new connection refused after rejected frame: %v", err)
	}
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		if _, ok := srv.Store().Estimate(k); !ok {
			t.Fatalf("key %q missing", k)
		}
	}
	if n := srv.Store().Len(); n != 4 {
		t.Fatalf("store has %d keys, want 4 (bad frame leaked state?)", n)
	}
}

// TestWireTornWrites: connections that die mid-prefix or mid-payload
// (the kill -9 producer) must not apply partial state or disturb the
// server. A frame is all-or-nothing.
func TestWireTornWrites(t *testing.T) {
	srv, ws := newWireServer(t)
	full := server.AppendFrame(nil, &server.Frame{Keys: []string{"torn-key"}, Items64: []uint64{7}})
	cuts := []int{0, 1, 3} // mid-prefix
	var framed []byte
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(len(full)))
	framed = append(append(framed, pfx[:]...), full...)
	for c := 5; c < len(framed); c += 4 { // mid-payload
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		conn, err := net.Dial("tcp", ws.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(framed[:cut])
		conn.Close() // torn: declared bytes never arrive
	}
	// Oversized length prefix: rejected with AckError, not buffered.
	conn, err := net.Dial("tcp", ws.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(pfx[:], uint32(server.DefaultMaxBodyBytes+1))
	conn.Write(pfx[:])
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || binary.LittleEndian.Uint64(ack[:]) != AckError {
		t.Fatalf("oversized prefix: ack %v err %v, want AckError", ack, err)
	}
	conn.Close()

	// No torn frame was applied; a whole frame still lands cleanly.
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("store has %d keys after torn writes, want 0", n)
	}
	c := NewClient(ws.Addr().String())
	defer c.Close()
	if ch, err := c.AddFrame(&server.Frame{Keys: []string{"torn-key"}, Items64: []uint64{7}}); err != nil || ch != 1 {
		t.Fatalf("whole frame after torn writes: changed=%d err=%v", ch, err)
	}
}

// TestWireConcurrentConnsBitIdentical: many connections ingesting
// concurrently (run under -race) must leave the store bit-identical to
// a twin fed the same records. Each connection owns a disjoint key
// subset — S-bitmap state is order-dependent per key, so per-key
// ordering must be preserved, and per-connection key ownership is how a
// real sharded producer achieves that.
func TestWireConcurrentConnsBitIdentical(t *testing.T) {
	srv, ws := newWireServer(t)
	const nConns = 8
	keys, items64, _ := wireWorkload(400, 20000, 17)

	var wg sync.WaitGroup
	errs := make(chan error, nConns)
	perConn := make([][]int, nConns) // record indices per connection, ordered
	for i, k := range keys {
		c := int(xrand.Mix64(uint64(len(k))^uint64(k[len(k)-1])<<8|uint64(k[len(k)-2]))) % nConns
		if c < 0 {
			c += nConns
		}
		perConn[c] = append(perConn[c], i)
	}
	for ci := 0; ci < nConns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := NewClient(ws.Addr().String())
			defer c.Close()
			idx := perConn[ci]
			for at := 0; at < len(idx); at += 100 {
				end := min(at+100, len(idx))
				bk := make([]string, 0, 100)
				bi := make([]uint64, 0, 100)
				for _, r := range idx[at:end] {
					bk = append(bk, keys[r])
					bi = append(bi, items64[r])
				}
				if err := c.SendFrame(&server.Frame{Keys: bk, Items64: bi}); err != nil {
					errs <- err
					return
				}
			}
			if _, err := c.Drain(); err != nil {
				errs <- err
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	twin, err := sbitmap.NewStore[string](sbitmap.MustSpec(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Twin: same per-key order (each key lives on exactly one connection,
	// whose records were sent in index order).
	for ci := 0; ci < nConns; ci++ {
		for _, r := range perConn[ci] {
			twin.AddUint64(keys[r], items64[r])
		}
	}
	assertSameState(t, snapshotKeys(t, srv.Store()), snapshotKeys(t, twin))
}

// TestWireClientRedials: a client whose connection the server closed
// (rejected frame) transparently redials on the next call.
func TestWireClientRedials(t *testing.T) {
	srv, ws := newWireServer(t)
	c := NewClient(ws.Addr().String())
	defer c.Close()
	if _, err := c.AddFrame(&server.Frame{Keys: []string{"a"}, Items64: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	// Force a rejected frame through the client's own connection: an
	// empty-key record is a decode error server-side.
	if _, err := c.AddFrame(&server.Frame{Keys: []string{""}, Items64: []uint64{1}}); err == nil {
		t.Fatal("empty-key frame accepted")
	}
	if _, err := c.AddFrame(&server.Frame{Keys: []string{"b"}, Items64: []uint64{2}}); err != nil {
		t.Fatalf("client did not redial: %v", err)
	}
	if n := srv.Store().Len(); n != 2 {
		t.Fatalf("store has %d keys, want 2", n)
	}
}

// TestWireStatsReflectIngest: TCP frames show up in the shared metrics
// exactly like HTTP adds (one add request per frame).
func TestWireStatsReflectIngest(t *testing.T) {
	srv, ws := newWireServer(t)
	c := NewClient(ws.Addr().String())
	defer c.Close()
	if _, err := c.AddFrame(&server.Frame{Keys: []string{"a", "b", "a"}, Items64: []uint64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFrame(&server.Frame{Keys: []string{"c"}, ItemsString: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	stats, err := server.NewClient(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.AddRequests != 2 || stats.Records != 4 {
		t.Fatalf("stats: %d add requests, %d records; want 2, 4", stats.AddRequests, stats.Records)
	}
}

// TestWireServeOneAllocFree: the per-frame server loop — prefix read,
// payload read, zero-copy decode, batch add, ack — is allocation-free
// once the connection state is warm. This is the wire-speed claim in
// its most literal form.
func TestWireServeOneAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	srv, err := server.New(server.Config{Spec: sbitmap.MustSpec(testSpec)})
	if err != nil {
		t.Fatal(err)
	}
	keys, items64, itemsS := wireWorkload(128, 128, 23)
	var stream []byte
	var pfx [4]byte
	add := func(frame []byte) {
		binary.LittleEndian.PutUint32(pfx[:], uint32(len(frame)))
		stream = append(append(stream, pfx[:]...), frame...)
	}
	add(server.AppendFrame(nil, &server.Frame{Keys: keys, Items64: items64}))
	add(server.AppendFrame(nil, &server.Frame{Keys: keys, ItemsString: itemsS}))

	r := &replayReader{data: stream}
	h := newConnHandler(srv, r, io.Discard)
	run := func() {
		r.off = 0
		h.br.Reset(r)
		for {
			if err := h.serveOne(); err != nil {
				break
			}
		}
	}
	run() // warm: size h.buf, frame slices, store keys, scratch
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("serveOne loop: %.1f allocs/op, want 0", allocs)
	}
}

// TestWireServeOneAllocFreeHelpers is TestWireServeOneAllocFree at
// GOMAXPROCS 2, where an 8,192-record frame's batch add is shared with
// the store's batch helpers; testing.AllocsPerRun pins GOMAXPROCS to 1
// and so never reaches them. The handler serves one connection, so the
// concurrent warm-up (which starts the helpers and stocks the Store's
// per-P scratch pool) adds the frame's batch to the store directly.
func TestWireServeOneAllocFreeHelpers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	srv, err := server.New(server.Config{Spec: sbitmap.MustSpec(testSpec)})
	if err != nil {
		t.Fatal(err)
	}
	keys, items64, _ := wireWorkload(4096, 8192, 24)
	frame := server.AppendFrame(nil, &server.Frame{Keys: keys, Items64: items64})
	stream := binary.LittleEndian.AppendUint32(nil, uint32(len(frame)))
	r := &replayReader{data: append(stream, frame...)}
	h := newConnHandler(srv, r, io.Discard)
	serve := func() {
		r.off = 0
		h.br.Reset(r)
		if err := h.serveOne(); err != nil {
			t.Fatal(err)
		}
	}
	batch := func() { srv.Store().AddBatch64(keys, items64) }
	if n := mallocs.At(2, 300, 50, batch, serve); n != 0 {
		t.Errorf("8,192-record serveOne at GOMAXPROCS 2: %d allocs over 50 frames, want 0", n)
	}
}

// replayReader is a resettable reader over a fixed byte stream.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
