package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	sbitmap "repro"
	"repro/internal/server"
)

// frameMsg wraps one SBF1 frame in the wire length prefix.
func frameMsg(frame []byte) []byte {
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(len(frame)))
	return append(pfx[:], frame...)
}

// FuzzWireFrame drives the per-connection serve loop with arbitrary byte
// streams — the attacker model is anyone who can open a TCP connection.
// The loop must never panic, never apply a torn or malformed frame, and
// must answer every accepted frame with a non-error ack and every
// rejected frame with AckError followed by connection close (at most one
// error ack per stream). Seeds cover valid single- and multi-frame
// streams of both item types, truncations at every layer, lying length
// prefixes, oversized declarations, and garbage.
func FuzzWireFrame(f *testing.F) {
	f64 := server.AppendFrame(nil, &server.Frame{Keys: []string{"alice", "bob"}, Items64: []uint64{1, 1 << 40}})
	fstr := server.AppendFrame(nil, &server.Frame{Keys: []string{"k1", "k2"}, ItemsString: []string{"", "10.0.0.1"}})
	// Valid streams: one frame, two frames, alternating types.
	f.Add(frameMsg(f64))
	f.Add(frameMsg(fstr))
	f.Add(append(frameMsg(f64), frameMsg(fstr)...))
	f.Add(append(frameMsg(fstr), frameMsg(f64)...))
	// Torn: truncated prefix, truncated payload at every boundary.
	whole := frameMsg(f64)
	for _, cut := range []int{0, 1, 3, 4, 5, 9, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	// Lying prefixes: length 0, length > max, length > payload present.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	lie := frameMsg(f64)
	binary.LittleEndian.PutUint32(lie[:4], uint32(len(f64)+100))
	f.Add(lie)
	// Valid frame followed by garbage: first acked, second rejected.
	f.Add(append(frameMsg(f64), frameMsg([]byte("garbage not SBF1"))...))
	// Adversarial SBF1 payloads behind honest prefixes.
	huge := server.AppendFrame(nil, &server.Frame{Keys: []string{"k"}, Items64: []uint64{7}})
	binary.LittleEndian.PutUint32(huge[6:], 1<<30) // lying record count
	f.Add(frameMsg(huge))
	empty := server.AppendFrame(nil, &server.Frame{Keys: []string{"ok", ""}, Items64: []uint64{1, 2}}) // empty key
	f.Add(frameMsg(empty))
	// Version-2 (timestamped) frames: valid streams, a mixed v1/v2 stream,
	// and a v2 frame truncated inside its 8-byte timestamp.
	fts := server.AppendFrame(nil, &server.Frame{Keys: []string{"alice"}, Items64: []uint64{9}, TSNanos: 1723000000123456789, HasTS: true})
	fstrTS := server.AppendFrame(nil, &server.Frame{Keys: []string{"k"}, ItemsString: []string{"v"}, TSNanos: -5e9, HasTS: true})
	f.Add(frameMsg(fts))
	f.Add(frameMsg(fstrTS))
	f.Add(append(frameMsg(f64), frameMsg(fts)...))
	f.Add(frameMsg(fts[:14]))

	f.Fuzz(func(t *testing.T, stream []byte) {
		srv, err := server.New(server.Config{Spec: sbitmap.MustSpec("sbitmap:n=1e3,eps=0.2")})
		if err != nil {
			t.Fatal(err)
		}
		var acks bytes.Buffer
		h := newConnHandler(srv, bytes.NewReader(stream), &acks)
		h.serve()
		h.bw.Flush()
		if acks.Len()%ackBytes != 0 {
			t.Fatalf("partial ack written: %d bytes", acks.Len())
		}
		// Error acks terminate the stream: at most one, and only last.
		raw := acks.Bytes()
		for off := 0; off < len(raw); off += ackBytes {
			v := binary.LittleEndian.Uint64(raw[off:])
			if v == AckError && off+ackBytes != len(raw) {
				t.Fatalf("AckError at offset %d was not the final ack", off)
			}
		}
		// Store invariant: every key came from a fully acked frame; no
		// empty keys can ever materialize.
		srv.Store().ForEach(func(k string, _ sbitmap.Counter) bool {
			if k == "" {
				t.Fatal("empty key materialized from fuzzed stream")
			}
			return true
		})
	})
}

// TestWireFuzzSeedsDirect replays the interesting seed shapes through a
// real decoder-loop assertion: a stream of N valid frames yields exactly
// N acks, none of them AckError.
func TestWireFuzzSeedsDirect(t *testing.T) {
	srv, err := server.New(server.Config{Spec: sbitmap.MustSpec("sbitmap:n=1e3,eps=0.2")})
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	const n = 20
	for i := 0; i < n; i++ {
		fr := server.AppendFrame(nil, &server.Frame{Keys: []string{"k"}, Items64: []uint64{uint64(i)}})
		if i%2 == 1 {
			fr = server.AppendFrame(nil, &server.Frame{Keys: []string{"s"}, ItemsString: []string{"v"}})
		}
		stream = append(stream, frameMsg(fr)...)
	}
	var acks bytes.Buffer
	h := newConnHandler(srv, bytes.NewReader(stream), &acks)
	h.serve()
	h.bw.Flush()
	if acks.Len() != n*ackBytes {
		t.Fatalf("%d ack bytes for %d frames", acks.Len(), n)
	}
	for off := 0; off < acks.Len(); off += ackBytes {
		if v := binary.LittleEndian.Uint64(acks.Bytes()[off:]); v == AckError {
			t.Fatalf("valid frame %d got AckError", off/ackBytes)
		}
	}
}
