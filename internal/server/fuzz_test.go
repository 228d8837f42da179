package server

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzFrame drives the SBF1 add-frame decoder with arbitrary bytes. The
// decoder sits directly on the network ingest path, so it must reject
// every malformed input with an error — truncations, lying record
// counts, huge uvarints, oversized key lengths — and never panic,
// over-allocate from a declared count, or read out of bounds. For inputs
// it accepts, decoding must be consistent: re-encoding the decoded frame
// and decoding again yields the identical frame (a fixed point; the
// original bytes may differ only by non-minimal uvarints). CI runs a
// short smoke over this target; `go test -fuzz FuzzFrame
// ./internal/server` digs deeper.
func FuzzFrame(f *testing.F) {
	// Well-formed frames of both item types.
	f.Add(AppendFrame(nil, &Frame{Keys: []string{"alice", "bob"}, Items64: []uint64{1, 0xdeadbeef}}))
	f.Add(AppendFrame(nil, &Frame{Keys: []string{"k"}, ItemsString: []string{""}}))
	f.Add(AppendFrame(nil, &Frame{Keys: []string{"link-a", "link-b"}, ItemsString: []string{"10.0.0.1", "x"}}))
	f.Add(AppendFrame(nil, &Frame{}))
	// Truncations at every interesting boundary.
	full := AppendFrame(nil, &Frame{Keys: []string{"key"}, Items64: []uint64{7}})
	for _, cut := range []int{0, 3, 4, 5, 9, 10, 11, len(full) - 1} {
		f.Add(full[:cut])
	}
	// Lying record count: header declares records the payload lacks.
	lie := AppendFrame(nil, &Frame{})
	binary.LittleEndian.PutUint32(lie[6:], 1<<30)
	f.Add(lie)
	// Huge uvarint key length.
	huge := AppendFrame(nil, &Frame{ItemsString: []string{}})
	binary.LittleEndian.PutUint32(huge[6:], 1)
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(huge)
	// Non-minimal uvarint (0x80 0x01 = 128): accepted, but must re-decode
	// to the same frame through the minimal re-encoding.
	f.Add([]byte{0x53, 0x42, 0x46, 0x31, 1, 2, 1, 0, 0, 0, 0x81, 0x00})
	// Trailing garbage after a valid record.
	f.Add(append(AppendFrame(nil, &Frame{Keys: []string{"k"}, Items64: []uint64{1}}), 0xff))
	// Version-2 (timestamped) frames: both item types, a pre-epoch
	// timestamp, and truncations through the 8-byte timestamp field.
	f.Add(AppendFrame(nil, &Frame{Keys: []string{"alice"}, Items64: []uint64{7}, TSNanos: 1723000000123456789, HasTS: true}))
	f.Add(AppendFrame(nil, &Frame{Keys: []string{"k"}, ItemsString: []string{"v"}, TSNanos: -5e9, HasTS: true}))
	tsf := AppendFrame(nil, &Frame{Keys: []string{"key"}, Items64: []uint64{9}, TSNanos: 42, HasTS: true})
	for _, cut := range []int{10, 12, 17, 18, len(tsf) - 1} {
		f.Add(tsf[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := fr.DecodeBorrowed(data); err != nil {
			return // rejected without panicking: fine
		}
		n := fr.Records()
		if len(fr.Keys) != n {
			t.Fatalf("Records()=%d but %d keys", n, len(fr.Keys))
		}
		if (fr.Items64 == nil) == (fr.ItemsString == nil) {
			t.Fatalf("decoded frame must carry exactly one item slice (64=%v str=%v)",
				fr.Items64 != nil, fr.ItemsString != nil)
		}
		if fr.Items64 != nil && len(fr.Items64) != n {
			t.Fatalf("%d keys, %d uint64 items", n, len(fr.Items64))
		}
		if fr.ItemsString != nil && len(fr.ItemsString) != n {
			t.Fatalf("%d keys, %d string items", n, len(fr.ItemsString))
		}
		for i, k := range fr.Keys {
			if k == "" || len(k) > frameMaxKeyLen {
				t.Fatalf("record %d: key length %d escaped validation", i, len(k))
			}
		}
		// Fixed point: re-encode (minimal uvarints, preserving the
		// version-2 timestamp when present) and decode again.
		var fr2 Frame
		if err := fr2.DecodeBorrowed(AppendFrame(nil, &fr)); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("re-decode differs:\n%+v\n%+v", fr, fr2)
		}
	})
}

// FuzzNDJSONLine holds the NDJSON fast path to encoding/json: for any
// line, decodeNDJSONLine either declines it or returns exactly the
// record json.Unmarshal decodes from it, and it never accepts a line
// json.Unmarshal rejects. CI runs a short smoke over this target;
// `go test -fuzz FuzzNDJSONLine ./internal/server` digs deeper.
func FuzzNDJSONLine(f *testing.F) {
	// The ndjson-window benchmark's line, and the same record reordered,
	// spaced and unstamped.
	f.Add([]byte(`{"key":"user-00002a","item":"0123456789abcdef","ts":1723000000000000000}`))
	f.Add([]byte(" {\t\"ts\" : -42 ,\r\"item\":\"\" , \"key\":\"k\"} "))
	f.Add([]byte(`{"key":"a","item":"b"}`))
	f.Add([]byte(`{}`))
	// Each decline case, beside the accepted lines at its edge (0x7f,
	// -0, the int64 bounds): a name not exactly key, item or ts; a
	// repeated name; an escape; a control byte; a byte at or above 0x80;
	// null; a ts with a fraction, an exponent, a plus, a leading zero, or
	// out of int64 range; and lines that are not one object.
	for _, line := range []string{
		`{"Key":"a"}`, `{"KEY":"a","item":"b"}`, `{"key":"a","other":[1,{"x":null}]}`,
		`{"key":"a","key":"b"}`, `{"ts":1,"key":"a","ts":2}`,
		`{"key":"a\"b"}`, `{"key":"\u0041"}`, `{"item":"\/"}`,
		"{\"key\":\"a\x01\"}", "{\"key\":\"a\x7f\"}",
		"{\"key\":\"caf\xc3\xa9\"}", "{\"key\":\"\xff\xfe\"}",
		`{"key":null}`, `{"key":"a","item":null}`, `{"key":"a","ts":null}`,
		`{"key":"a","ts":1.5}`, `{"key":"a","ts":1e9}`, `{"key":"a","ts":1E9}`,
		`{"key":"a","ts":+1}`, `{"key":"a","ts":01}`, `{"key":"a","ts":-01}`, `{"key":"a","ts":-0}`,
		`{"key":"a","ts":9223372036854775807}`, `{"key":"a","ts":9223372036854775808}`,
		`{"key":"a","ts":-9223372036854775808}`, `{"key":"a","ts":-9223372036854775809}`,
		`{"key":"a","ts":10000000000000000000}`, `{"key":"a","ts":-}`,
		`{"key":"a","ts":"7"}`, `{"key":7}`, `{"key":"a","item":true}`,
		`{"key":"a",}`, `{"key" "a"}`, `{"key":"a"}{}`, `{"key":"a"`, `[]`, `null`, `"key"`, "{\"key\":\"a\"}\v",
	} {
		f.Add([]byte(line))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := decodeNDJSONLine(line)
		if !ok {
			return
		}
		var want ndjsonRecord
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path accepted %q as %+v; encoding/json rejects it: %v", line, got, err)
		}
		if got != want {
			t.Fatalf("%q: fast path %+v, encoding/json %+v", line, got, want)
		}
	})
}
