// Package wire is the raw-TCP ingest face of the counting service: the
// same SBF1 add frames POST /v1/add accepts, but framed directly on a
// long-lived connection with no HTTP between the producer and the
// store. Where the HTTP path pays headers, chunking, and handler
// dispatch per batch, the wire path pays four length bytes — a producer
// saturating a link sends back-to-back frames and reads acks
// asynchronously, and the server runs one reader goroutine per
// connection straight into the store's keyed batch path, zero-copy and
// allocation-free once warm.
//
// Protocol (little-endian throughout), symmetric and minimal:
//
//	client → server:  repeated [uint32 frame length][SBF1 add frame]
//	server → client:  one uint64 ack per frame, in frame order: the
//	                  frame's changed count, or ^uint64(0) (AckError)
//	                  if the frame was rejected — after which the
//	                  server closes the connection.
//
// A frame length of zero or above the server's body limit is a protocol
// error: the server acks AckError and closes. Because acks are ordered,
// a client may pipeline any number of frames and match acks to frames
// by counting. A torn frame (connection dies mid-payload) is never
// applied: the server reads the full payload before decoding, so the
// failure mode of an abrupt client death is a dropped frame, not a
// half-ingested one. One bad connection never poisons another — all
// per-connection state (read buffer, decoded frame, ack writer) is
// confined to that connection's goroutine.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"unsafe"

	"repro/internal/server"
)

// AckError is the ack value the server sends when it rejects a frame
// (bad length prefix, malformed SBF1 payload). It cannot collide with a
// real changed count: changed ≤ records, and a frame holds at most
// MaxBodyBytes/9 records. After sending it the server closes the
// connection.
const AckError = ^uint64(0)

// ackBytes is the fixed ack size: one little-endian uint64.
const ackBytes = 8

// Server accepts wire connections and feeds one *server.Server — the
// store, metrics, and limits are shared with the HTTP face, so a frame
// ingested over TCP is indistinguishable (bit-identically) from the
// same frame POSTed to /v1/add.
type Server struct {
	srv *server.Server
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts accepting wire connections on ln, feeding srv. It
// returns immediately; the accept loop and every connection handler run
// on their own goroutines until Close.
func Serve(ln net.Listener, srv *server.Server) *Server {
	w := &Server{srv: srv, ln: ln, conns: make(map[net.Conn]struct{})}
	w.wg.Add(1)
	go w.acceptLoop()
	return w
}

// Addr reports the listener's address (useful with ":0" listeners).
func (w *Server) Addr() net.Addr { return w.ln.Addr() }

// Close stops the listener, closes every live connection, and waits for
// all handlers to return. Frames fully read before Close are applied;
// in-flight partial frames are dropped (never half-applied).
func (w *Server) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.ln.Close()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

func (w *Server) acceptLoop() {
	defer w.wg.Done()
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return
		}
		w.conns[c] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go w.handleConn(c)
	}
}

func (w *Server) handleConn(c net.Conn) {
	defer w.wg.Done()
	defer func() {
		c.Close()
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
	}()
	h := newConnHandler(w.srv, c, c)
	h.serve()
}

// connHandler is one connection's confined state: buffered reader and
// ack writer, the reusable payload buffer, and the borrowed decode
// frame. Its address is the affinity value sharding the server's
// metrics counters — already heap-allocated, stable for the
// connection's life, distinct per connection.
type connHandler struct {
	srv   *server.Server
	br    *bufio.Reader
	bw    *bufio.Writer
	buf   []byte
	frame server.Frame
	hdr   [4]byte
	ack   [ackBytes]byte
	max   int64
}

func newConnHandler(srv *server.Server, r io.Reader, w io.Writer) *connHandler {
	return &connHandler{
		srv: srv,
		br:  bufio.NewReaderSize(r, 64<<10),
		bw:  bufio.NewWriterSize(w, 8<<10),
		max: srv.MaxBodyBytes(),
	}
}

// errConnDone distinguishes "stop serving this connection" outcomes that
// already acked (or cannot ack) from clean EOF.
var errConnDone = errors.New("wire: connection done")

// serve runs the read-decode-add-ack loop until the connection ends.
func (h *connHandler) serve() {
	defer h.frame.Release()
	for {
		if err := h.serveOne(); err != nil {
			return
		}
	}
}

// serveOne processes one frame: length prefix, payload, zero-copy
// decode, batch add, ack. Acks are batched: the writer is only flushed
// when no further frame is already buffered, so a pipelining client
// costs one write syscall per read burst, not per frame.
func (h *connHandler) serveOne() error {
	if _, err := io.ReadFull(h.br, h.hdr[:]); err != nil {
		return errConnDone // clean close between frames, or torn prefix
	}
	n := int64(binary.LittleEndian.Uint32(h.hdr[:]))
	if n == 0 || n > h.max {
		h.ackError()
		return errConnDone
	}
	if cap(h.buf) < int(n) {
		h.buf = make([]byte, n)
	}
	h.buf = h.buf[:n]
	if _, err := io.ReadFull(h.br, h.buf); err != nil {
		return errConnDone // torn frame: dropped whole, never half-applied
	}
	if err := h.frame.DecodeBorrowed(h.buf); err != nil {
		h.ackError()
		return errConnDone
	}
	// Append-before-ack: the frame hits the WAL (when configured) before
	// the store and the ack, so an acked frame survives a crash. A WAL
	// write failure is not the client's fault, but the ack contract is
	// "acked means applied durably" — refuse and close rather than ack a
	// frame that may vanish.
	res, err := h.srv.IngestFrame(h.buf, &h.frame)
	if err != nil {
		h.ackError()
		return errConnDone
	}
	h.srv.RecordIngest(uintptr(unsafe.Pointer(h)), res.Records, res.Changed)
	binary.LittleEndian.PutUint64(h.ack[:], uint64(res.Changed))
	if _, err := h.bw.Write(h.ack[:]); err != nil {
		return errConnDone
	}
	if h.br.Buffered() < 4 { // no full prefix waiting: flush the acks
		if err := h.bw.Flush(); err != nil {
			return errConnDone
		}
	}
	return nil
}

// ackError best-effort sends AckError so a well-behaved client learns
// its frame was rejected (rather than seeing a bare reset) before the
// connection closes.
func (h *connHandler) ackError() {
	binary.LittleEndian.PutUint64(h.ack[:], AckError)
	h.bw.Write(h.ack[:])
	h.bw.Flush()
}

// ErrFrameRejected is returned by the Client when the server answers
// AckError: the frame was malformed or oversized, or its WAL append
// failed, and the server has closed the connection. The client redials
// on the next call.
var ErrFrameRejected = errors.New("wire: server rejected frame and closed the connection")

// clientWindow bounds pipelined unacked frames; past it, SendFrame blocks
// collecting acks. Keeps a runaway producer from buffering unbounded
// frames in the kernel while still hiding the round trip.
const clientWindow = 64

// Client speaks the wire protocol to one server over one long-lived
// connection, redialing transparently after errors. AddFrame sends one
// frame and waits for its ack; the pipelined SendFrame/Drain pair
// overlaps frames against the round trip. Not safe for concurrent use
// (matching acks to frames requires ordering; use one Client per
// producer goroutine).
type Client struct {
	addr string

	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     []byte // frame encode buffer, reused
	ack     [ackBytes]byte
	pending int    // frames sent, acks not yet read
	changed uint64 // acked changed counts since the last Drain
}

// NewClient returns a client for addr (host:port). The connection is
// dialed lazily on first use and redialed after any error.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// Close closes the connection (if open). The client remains usable: the
// next call redials.
func (c *Client) Close() error {
	if c.c == nil {
		return nil
	}
	err := c.c.Close()
	c.c, c.pending, c.changed = nil, 0, 0
	return err
}

func (c *Client) conn() error {
	if c.c != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.c = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 4<<10)
		c.bw = bufio.NewWriterSize(conn, 64<<10)
	} else {
		c.br.Reset(conn)
		c.bw.Reset(conn)
	}
	c.pending, c.changed = 0, 0
	return nil
}

// fail tears the connection down so the next call redials, and returns
// err.
func (c *Client) fail(err error) error {
	c.Close()
	return err
}

// encode frames f into c.buf behind the 4-byte length prefix,
// allocating the buffer on first use.
func (c *Client) encode(f *server.Frame) {
	if cap(c.buf) < 4 {
		c.buf = make([]byte, 4, 4096)
	}
	c.buf = server.AppendFrame(c.buf[:4], f)
	binary.LittleEndian.PutUint32(c.buf, uint32(len(c.buf)-4))
}

// AddFrame sends one frame and waits for its ack, returning the server's
// changed count. Any pipelined frames are drained first (their counts
// are lost to the caller — mix the APIs only between Drains).
func (c *Client) AddFrame(f *server.Frame) (int, error) {
	if _, err := c.Drain(); err != nil {
		return 0, err
	}
	if err := c.conn(); err != nil {
		return 0, err
	}
	c.encode(f)
	if _, err := c.bw.Write(c.buf); err != nil {
		return 0, c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return 0, c.fail(err)
	}
	ch, err := c.readAck()
	if err != nil {
		return 0, c.fail(err)
	}
	return int(ch), nil
}

func (c *Client) readAck() (uint64, error) {
	if _, err := io.ReadFull(c.br, c.ack[:]); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.ack[:])
	if v == AckError {
		return 0, ErrFrameRejected
	}
	return v, nil
}

// SendFrame pipelines one frame without waiting for its ack. When the
// unacked window is full it first collects one ack. Call Drain to settle
// all outstanding acks and read the accumulated changed count.
func (c *Client) SendFrame(f *server.Frame) error {
	if err := c.conn(); err != nil {
		return err
	}
	c.encode(f)
	for c.pending >= clientWindow {
		// Window full: the server must have acks in flight; absorb one.
		if err := c.bw.Flush(); err != nil {
			return c.fail(err)
		}
		ch, err := c.readAck()
		if err != nil {
			return c.fail(err)
		}
		c.changed += ch
		c.pending--
	}
	if _, err := c.bw.Write(c.buf); err != nil {
		return c.fail(err)
	}
	c.pending++
	return nil
}

// Drain flushes pipelined frames and collects every outstanding ack,
// returning the total changed count acked since the previous Drain
// (including acks absorbed by window pressure). A no-op (0, nil) when
// nothing is outstanding.
func (c *Client) Drain() (int, error) {
	if c.c == nil || (c.pending == 0 && c.changed == 0) {
		return 0, nil
	}
	if err := c.bw.Flush(); err != nil {
		return 0, c.fail(err)
	}
	for c.pending > 0 {
		ch, err := c.readAck()
		if err != nil {
			return 0, c.fail(err)
		}
		c.changed += ch
		c.pending--
	}
	total := int(c.changed)
	c.changed = 0
	return total, nil
}
