package server

import (
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"
)

// The add frame is the compact binary ingest format of the counting
// service: the encoding of one Frame, a batch of (key, item) records
// that the server applies as one Store batch, so one frame costs the
// server one batched hash pass and one lock per touched stripe — the
// same fast path a local caller gets. An exporter or edge agent
// accumulates records into a Frame, encodes it with AppendFrame, and
// sends it to /v1/add or the TCP frame listener.
//
// Layout (little-endian):
//
//	[0:4]   magic "SBF1"
//	[4]     format version (1 or 2)
//	[5]     item type: 1 = uint64 items, 2 = string items
//	[6:10]  record count (uint32)
//	[10:18] record timestamp, unix nanoseconds (int64) — version 2 only
//	per record:
//	        uvarint key length, key bytes
//	        item: 8-byte uint64 (type 1) | uvarint length + bytes (type 2)
//
// Uvarint key/item lengths keep the common case (short flow keys) at one
// length byte per field — the "compact" in compact frame.
//
// Version 2 adds one per-frame timestamp — the capture instant an
// exporter stamps on the whole batch, which a windowed store uses to
// place the records in time (Store.AddBatch64At). It is caller-supplied
// so replayed traces and WAL recovery reproduce identical windows; a
// version-1 frame means "no timestamp" and lands in the watermark
// window. Decoders accept both versions; AppendFrame emits version 1
// unless the Frame has HasTS set.

// FrameContentType is the Content-Type under which /v1/add expects a
// binary add frame. Any other Content-Type is read as NDJSON.
const FrameContentType = "application/x-sbitmap-frame"

// frameMagic tags add frames ("SBF1" read as a little-endian uint32).
const frameMagic = uint32(0x31464253)

// Frame format versions: v1 has no timestamp, v2 carries one per-frame
// record timestamp after the count.
const (
	frameVersion   = 1
	frameVersionTS = 2
)

// Frame item types.
const (
	frameItems64     = 1
	frameItemsString = 2
)

// frameMaxKeyLen bounds a single key; longer keys are a protocol error
// (and would be a poor idea in a per-key map anyway).
const frameMaxKeyLen = 1 << 16

// Frame is one batch of add records, the value every binary-frame
// client sends and the server decodes: Keys paired with exactly one of
// Items64 or ItemsString (the other is nil), plus an optional record
// timestamp.
type Frame struct {
	Keys        []string
	Items64     []uint64
	ItemsString []string

	// TSNanos is the frame's record timestamp (unix nanoseconds), valid
	// only when HasTS is set (version-2 frames). Zero-valued pairs mean an
	// untimestamped version-1 frame.
	TSNanos int64
	HasTS   bool

	// spare64/spareS park the capacity of whichever item slice the last
	// decode did not select, so a reused Frame stays allocation-free even
	// when consecutive frames alternate item types while Items64 /
	// ItemsString keep their exactly-one-non-nil contract.
	spare64 []uint64
	spareS  []string
}

// Records returns the number of records in the frame.
func (f *Frame) Records() int { return len(f.Keys) }

// AppendFrame appends the encoding of f to dst and returns the extended
// slice. The item type and the timestamp travel as data: f has string
// items when f.ItemsString is non-nil and uint64 items otherwise (the
// decoder's exactly-one-non-nil contract), and a set HasTS selects the
// version-2 header carrying TSNanos. It panics if the key and item slices
// differ in length (caller bug, as in Store.AddBatch64).
func AppendFrame(dst []byte, f *Frame) []byte {
	keys, itemType, n := f.Keys, byte(frameItems64), len(f.Items64)
	if f.ItemsString != nil {
		itemType, n = frameItemsString, len(f.ItemsString)
	}
	if len(keys) != n {
		panic(fmt.Sprintf("server: AppendFrame with %d keys and %d items", len(keys), n))
	}
	version := byte(frameVersion)
	if f.HasTS {
		version = frameVersionTS
	}
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, version, itemType)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	if f.HasTS {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.TSNanos))
	}
	// One loop per item type over local slices: a single loop branching
	// per record encodes string frames measurably slower.
	if items := f.ItemsString; items != nil {
		for i, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = binary.AppendUvarint(dst, uint64(len(items[i])))
			dst = append(dst, items[i]...)
		}
		return dst
	}
	items := f.Items64
	for i, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.LittleEndian.AppendUint64(dst, items[i])
	}
	return dst
}

// AppendFrame64 is AppendFrame for an untimestamped frame of uint64
// items. bench/ calls it.
func AppendFrame64(dst []byte, keys []string, items []uint64) []byte {
	return AppendFrame(dst, &Frame{Keys: keys, Items64: items})
}

// AppendFrameStringAt is AppendFrame for a frame of string items stamped
// with ts (version 2); a nil items still encodes string items. bench/
// calls it.
func AppendFrameStringAt(dst []byte, ts time.Time, keys, items []string) []byte {
	if items == nil {
		items = []string{}
	}
	return AppendFrame(dst, &Frame{Keys: keys, ItemsString: items, TSNanos: ts.UnixNano(), HasTS: true})
}

// frameUvarint decodes one uvarint length field bounded by max.
func frameUvarint(data []byte, what string, max int) (int, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("server: truncated frame: %s length", what)
	}
	if v > uint64(max) {
		return 0, nil, fmt.Errorf("server: frame %s length %d exceeds %d", what, v, max)
	}
	return int(v), data[n:], nil
}

// byteString reinterprets b as a string without copying. The result
// aliases b: it is valid only while b's contents are unchanged.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeBorrowed parses an add frame into f without copying: keys and
// string items alias data, and f's slices are reused across calls (grown
// once, then steady-state allocation-free). Keys must be non-empty (the
// same contract the NDJSON ingest path enforces); items may be anything.
//
// The aliasing contract: the decoded strings are views into data, valid
// only until the caller reuses the buffer. The Store's batch methods are
// safe consumers — they hash items immediately and clone any key they
// materialize — which is what makes a persistent-connection listener's
// read-decode-add loop zero-copy end to end. On error f is emptied.
func (f *Frame) DecodeBorrowed(data []byte) error {
	// Empty f up front (errors leave it empty) while parking both item
	// slices' capacity in the spares for reuse below.
	f.Keys = f.Keys[:0]
	if f.Items64 != nil {
		f.spare64, f.Items64 = f.Items64[:0], nil
	}
	if f.ItemsString != nil {
		f.spareS, f.ItemsString = f.ItemsString[:0], nil
	}
	f.TSNanos, f.HasTS = 0, false
	if len(data) < 10 {
		return fmt.Errorf("server: truncated frame: header needs 10 bytes, have %d", len(data))
	}
	if binary.LittleEndian.Uint32(data) != frameMagic {
		return fmt.Errorf("server: bad frame magic (not an add frame)")
	}
	version := data[4]
	if version != frameVersion && version != frameVersionTS {
		return fmt.Errorf("server: unsupported frame version %d (this build reads versions %d and %d)", version, frameVersion, frameVersionTS)
	}
	itemType := data[5]
	if itemType != frameItems64 && itemType != frameItemsString {
		return fmt.Errorf("server: unknown frame item type %d", itemType)
	}
	count := int(binary.LittleEndian.Uint32(data[6:]))
	rest := data[10:]
	if version == frameVersionTS {
		if len(rest) < 8 {
			return fmt.Errorf("server: truncated frame: version-2 header needs a timestamp, have %d bytes", len(rest))
		}
		f.TSNanos, f.HasTS = int64(binary.LittleEndian.Uint64(rest)), true
		rest = rest[8:]
	}
	// Every record costs at least one key-length byte plus its item (8
	// bytes for uint64 items, one length byte for string items); a count
	// that cannot fit is rejected before any allocation sized by it.
	minRec := 2
	if itemType == frameItems64 {
		minRec = 9
	}
	if count*minRec > len(rest) {
		return fmt.Errorf("server: truncated frame: %d records declared, %d bytes of payload", count, len(rest))
	}
	// Exactly one of the item slices ends up non-nil — that is how callers
	// (and the HTTP handler) tell the two record shapes apart, so the
	// selected slice is forced non-nil even for an empty frame and the
	// other stays nil (its capacity parked in the spare).
	keys := f.Keys
	if keys == nil || cap(keys) < count {
		keys = make([]string, 0, count)
	}
	items64 := f.spare64[:0]
	itemsS := f.spareS[:0]
	if itemType == frameItems64 {
		if items64 == nil || cap(items64) < count {
			items64 = make([]uint64, 0, count)
		}
	} else {
		if itemsS == nil || cap(itemsS) < count {
			itemsS = make([]string, 0, count)
		}
	}
	var err error
	var klen int
	for i := 0; i < count; i++ {
		if klen, rest, err = frameUvarint(rest, "key", frameMaxKeyLen); err != nil {
			return fmt.Errorf("%w (record %d)", err, i)
		}
		if klen == 0 {
			// Same contract as the NDJSON ingest path: a record with no
			// key is malformed, not a record for the empty-string key
			// (which /v1/estimate could never query back).
			return fmt.Errorf("server: frame record %d has an empty key", i)
		}
		if klen > len(rest) {
			return fmt.Errorf("server: truncated frame: record %d key", i)
		}
		keys = append(keys, byteString(rest[:klen]))
		rest = rest[klen:]
		if itemType == frameItems64 {
			if len(rest) < 8 {
				return fmt.Errorf("server: truncated frame: record %d item", i)
			}
			items64 = append(items64, binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		} else {
			var ilen int
			if ilen, rest, err = frameUvarint(rest, "item", len(rest)); err != nil {
				return fmt.Errorf("%w (record %d)", err, i)
			}
			if ilen > len(rest) {
				return fmt.Errorf("server: truncated frame: record %d item", i)
			}
			itemsS = append(itemsS, byteString(rest[:ilen]))
			rest = rest[ilen:]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("server: %d trailing bytes after last frame record", len(rest))
	}
	f.Keys = keys
	if itemType == frameItems64 {
		f.Items64, f.spare64 = items64, nil
		f.spareS = itemsS
	} else {
		f.ItemsString, f.spareS = itemsS, nil
		f.spare64 = items64
	}
	return nil
}

// Release drops the frame's references into borrowed or decoded memory
// (string views, item slices keep their capacity) so a pooled Frame
// cannot pin a request body or a connection's read buffer.
func (f *Frame) Release() {
	clear(f.Keys[:cap(f.Keys)]) // to cap: a failed decode appends past the reset length
	clear(f.ItemsString[:cap(f.ItemsString)])
	clear(f.spareS[:cap(f.spareS)])
	f.Keys, f.Items64, f.ItemsString = f.Keys[:0], f.Items64[:0], f.ItemsString[:0]
	f.spareS = f.spareS[:0]
}
