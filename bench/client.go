package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// errRejected reports a wire frame the server answered with the error ack
// (and then closed the connection).
var errRejected = errors.New("wire: frame rejected")

// wireConn is one raw TCP ingest connection speaking sketchd's wire
// protocol with one frame in flight: write a length-prefixed SBF1 frame,
// read its 8-byte ack. Frames arrive pre-encoded, length prefix included,
// so a send does no encoding. After an error the next send redials.
type wireConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	ack  [8]byte
	tr   *tracer // nil: untraced
}

// send ships one frame and waits for its ack, returning when the write
// started and the ack arrived.
func (w *wireConn) send(frame []byte) (start, end time.Time, err error) {
	if w.c == nil {
		c, err := net.Dial("tcp", w.addr)
		if err != nil {
			return time.Now(), time.Now(), fmt.Errorf("wire dial: %w", err)
		}
		w.c = c
		if w.br == nil {
			w.br = bufio.NewReaderSize(c, 4096)
		} else {
			w.br.Reset(c)
		}
	}
	start = time.Now()
	if _, err := w.c.Write(frame); err != nil {
		w.close()
		return start, time.Now(), err
	}
	wrote := time.Now()
	if _, err := io.ReadFull(w.br, w.ack[:]); err != nil {
		w.close()
		return start, time.Now(), err
	}
	end = time.Now()
	if w.tr != nil {
		w.tr.record(spanWireFrame, w.tr.ns(start), w.tr.ns(wrote), w.tr.ns(end), w.tr.ns(end))
	}
	if binary.LittleEndian.Uint64(w.ack[:]) != wire.AckError {
		return start, end, nil
	}
	w.close()
	return start, end, errRejected
}

func (w *wireConn) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// httpConn is one keep-alive HTTP connection to sketchd (the transport
// never opens a second one). Answers are read whole into a reused buffer.
type httpConn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	tr   *tracer // nil: untraced
}

func newHTTPConn(addr string) *httpConn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &httpConn{base: "http://" + addr, hc: &http.Client{Transport: t, Timeout: time.Minute}}
}

// do sends one request and reads the answer. body aliases c.buf until the
// next call. A non-2xx status is returned, not an error; err reports
// transport failures. Traced calls record the root span name root with
// write, wait and read children.
func (c *httpConn) do(root uint8, method, pathq, ctype string, reqBody []byte) (status int, body []byte, start, end time.Time, err error) {
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequest(method, c.base+pathq, rd)
	if err != nil {
		return 0, nil, time.Now(), time.Now(), err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	// The trace hooks run on the transport's own goroutines.
	var wrote, first atomic.Int64
	if c.tr != nil {
		t := c.tr
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(t.ns(time.Now())) },
			GotFirstResponseByte: func() { first.Store(t.ns(time.Now())) },
		}))
	}
	start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, start, time.Now(), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end = time.Now()
	if err != nil {
		return 0, nil, start, end, err
	}
	if c.tr != nil {
		s, e := c.tr.ns(start), c.tr.ns(end)
		w := min(max(wrote.Load(), s), e)
		f := min(max(first.Load(), w), e)
		c.tr.record(root, s, w, f, e)
	}
	return resp.StatusCode, c.buf.Bytes(), start, end, nil
}

func (c *httpConn) close() { c.hc.CloseIdleConnections() }
