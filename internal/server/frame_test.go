package server

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

// frameRoundTrips is the round-trip table: Frames sent through AppendFrame
// and DecodeBorrowed, each row tagged with the test that runs it. The rows
// cover both item types, each with and without a timestamp (zero and
// pre-epoch included; the field is a signed unix-nano), and empty frames of
// both types. Each row decodes into a fresh Frame and into one Frame reused
// across its test's rows; untimestamped rows follow timestamped ones, so
// the reused Frame must drop a stale timestamp.
func frameRoundTrips() []frameRoundTrip {
	keys64 := []string{"alice", "amy", "bob", strings.Repeat("k", 300), "alice"}
	items64 := []uint64{1, 2, 3, 1 << 60, 0}
	keysS := []string{"k1", "k2", "k1"}
	itemsS := []string{"", "item-two", strings.Repeat("x", 5000)}
	const ts = 1723000000123456789
	return []frameRoundTrip{
		{"64", "uint64", Frame{Keys: keys64, Items64: items64}},
		{"string", "string", Frame{Keys: keysS, ItemsString: itemsS}},
		{"timestamped", "uint64 at ts", Frame{Keys: keys64, Items64: items64, TSNanos: ts, HasTS: true}},
		{"timestamped", "string at ts", Frame{Keys: keysS, ItemsString: itemsS, TSNanos: ts, HasTS: true}},
		{"timestamped", "uint64 reused after ts", Frame{Keys: keys64, Items64: items64}},
		{"timestamped", "uint64 at epoch", Frame{Keys: keys64, Items64: items64, HasTS: true}},
		{"timestamped", "string at pre-epoch", Frame{Keys: keysS, ItemsString: itemsS, TSNanos: -5e9, HasTS: true}},
		{"timestamped", "string reused after ts", Frame{Keys: keysS, ItemsString: itemsS}},
		{"timestamped", "uint64 at pre-epoch", Frame{Keys: keys64, Items64: items64, TSNanos: -5e9, HasTS: true}},
		{"timestamped", "string at epoch", Frame{Keys: keysS, ItemsString: itemsS, HasTS: true}},
		{"empty", "empty uint64", Frame{}},
		{"empty", "empty string", Frame{ItemsString: []string{}}},
	}
}

type frameRoundTrip struct {
	test, name string
	in         Frame
}

func TestFrameRoundTrip64(t *testing.T)          { roundTripFrames(t, "64") }
func TestFrameRoundTripString(t *testing.T)      { roundTripFrames(t, "string") }
func TestFrameRoundTripTimestamped(t *testing.T) { roundTripFrames(t, "timestamped") }
func TestFrameRoundTripEmpty(t *testing.T)       { roundTripFrames(t, "empty") }

// roundTripFrames runs the frameRoundTrips rows tagged test.
func roundTripFrames(t *testing.T, test string) {
	var reused Frame
	ran := 0
	for _, row := range frameRoundTrips() {
		if row.test != test {
			continue
		}
		ran++
		in := &row.in
		data := AppendFrame(nil, in)
		wantVersion, wantType := byte(frameVersion), byte(frameItems64)
		if in.HasTS {
			wantVersion = frameVersionTS
		}
		if in.ItemsString != nil {
			wantType = frameItemsString
		}
		if data[4] != wantVersion || data[5] != wantType {
			t.Errorf("%s: header version %d item type %d, want %d %d", row.name, data[4], data[5], wantVersion, wantType)
		}
		for _, f := range []*Frame{new(Frame), &reused} {
			if err := f.DecodeBorrowed(data); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if f.Records() != len(in.Keys) || (f.ItemsString == nil) != (in.ItemsString == nil) || (f.Items64 == nil) == (f.ItemsString == nil) {
				t.Fatalf("%s: decoded %d records, items64 %v, strings %v", row.name, f.Records(), f.Items64, f.ItemsString)
			}
			if f.HasTS != in.HasTS || f.TSNanos != in.TSNanos {
				t.Errorf("%s: HasTS=%v TSNanos=%d, want %v %d", row.name, f.HasTS, f.TSNanos, in.HasTS, in.TSNanos)
			}
			for i := range in.Keys {
				if f.Keys[i] != in.Keys[i] {
					t.Errorf("%s: record %d key %q != %q", row.name, i, f.Keys[i], in.Keys[i])
				}
				if in.ItemsString != nil && f.ItemsString[i] != in.ItemsString[i] ||
					in.ItemsString == nil && f.Items64[i] != in.Items64[i] {
					t.Errorf("%s: record %d item mismatch", row.name, i)
				}
			}
		}
	}
	if ran == 0 {
		t.Fatalf("no round-trip rows tagged %q", test)
	}
}

// TestAppendFrameWrappersLayout: the two fixed-shape encoders emit the
// documented layout byte for byte (the bytes WAL records and benchmark
// inputs hold), and AppendFrameStringAt keeps item type 2 when its items
// are nil.
func TestAppendFrameWrappersLayout(t *testing.T) {
	at := time.Unix(0, 1)
	for _, tc := range []struct {
		name      string
		got, want []byte
	}{
		{"AppendFrame64", AppendFrame64(nil, []string{"k"}, []uint64{7}),
			[]byte{'S', 'B', 'F', '1', 1, 1, 1, 0, 0, 0, 1, 'k', 7, 0, 0, 0, 0, 0, 0, 0}},
		{"AppendFrameStringAt", AppendFrameStringAt(nil, at, []string{"k"}, []string{"v"}),
			[]byte{'S', 'B', 'F', '1', 2, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 'k', 1, 'v'}},
		{"AppendFrameStringAt nil items", AppendFrameStringAt(nil, at, nil, nil),
			[]byte{'S', 'B', 'F', '1', 2, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Errorf("%s = %x, want %x", tc.name, tc.got, tc.want)
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := AppendFrame(nil, &Frame{Keys: []string{"k1", "k2"}, Items64: []uint64{1, 2}})
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte{}, good...)
		return mutate(b)
	}
	cases := map[string][]byte{
		"empty":         {},
		"short header":  good[:9],
		"bad magic":     corrupt(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"bad version":   corrupt(func(b []byte) []byte { b[4] = 9; return b }),
		"bad item type": corrupt(func(b []byte) []byte { b[5] = 7; return b }),
		"count too big": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[6:], 1<<30)
			return b
		}),
		"truncated record": good[:len(good)-3],
		"trailing bytes":   append(append([]byte{}, good...), 0xAB),
		"empty key":        AppendFrame(nil, &Frame{Keys: []string{"ok", ""}, Items64: []uint64{1, 2}}),
		"huge key length": corrupt(func(b []byte) []byte {
			// Overwrite the first record's key length with a uvarint far
			// above frameMaxKeyLen.
			rest := binary.AppendUvarint(b[:10], 1<<40)
			return append(rest, good[11:]...)
		}),
	}
	for name, data := range cases {
		if err := new(Frame).DecodeBorrowed(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A string-item frame truncated inside an item length.
	sf := AppendFrame(nil, &Frame{Keys: []string{"key"}, ItemsString: []string{"item"}})
	for cut := 10; cut < len(sf); cut++ {
		if err := new(Frame).DecodeBorrowed(sf[:cut]); err == nil {
			t.Errorf("string frame cut to %d accepted", cut)
		}
	}
	// A version-2 frame truncated anywhere — inside the 8-byte timestamp
	// included — must be rejected.
	tf := AppendFrame(nil, &Frame{Keys: []string{"key"}, Items64: []uint64{1}, TSNanos: 7, HasTS: true})
	for cut := 0; cut < len(tf); cut++ {
		if err := new(Frame).DecodeBorrowed(tf[:cut]); err == nil {
			t.Errorf("timestamped frame cut to %d accepted", cut)
		}
	}
}

func TestFrameLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	AppendFrame(nil, &Frame{Keys: []string{"k"}})
}
