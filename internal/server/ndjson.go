package server

// ndjsonMaxLine bounds one NDJSON record line, its newline excluded.
const ndjsonMaxLine = 1 << 20

// ndjsonRecord is one NDJSON ingest line. TS is an optional record
// timestamp in unix nanoseconds for windowed stores (0 means
// unstamped: the record lands in the store's current watermark
// sub-window, exactly like an untimestamped frame).
type ndjsonRecord struct {
	Key  string `json:"key"`
	Item string `json:"item"`
	TS   int64  `json:"ts,omitempty"`
}

// decodeNDJSONLine decodes the flat line {"key":"…","item":"…","ts":N}
// without encoding/json and without copying: the key and item alias
// line, as Frame.DecodeBorrowed's strings alias a frame. It accepts only
// a line encoding/json decodes into exactly the same record, and reports
// ok false for any other, which the caller hands to json.Unmarshal. So
// it declines:
//   - a name other than exactly key, item or ts (encoding/json matches
//     names case-insensitively and skips unknown ones), and a repeated
//     name (the last one wins there);
//   - a key or item that is not a string of ASCII bytes from 0x20 on
//     without escapes, null included (a byte at or above 0x80 may be
//     invalid UTF-8, which becomes U+FFFD there);
//   - a ts that is not an integer literal fitting an int64, null
//     included;
//   - anything but one object with only JSON whitespace around it.
//
// Names may come in any order, each at most once, with JSON whitespace
// between tokens. The scanner is plain functions that pass the cursor
// by value, with no closure to capture it, so a decode allocates
// nothing.
func decodeNDJSONLine(line []byte) (rec ndjsonRecord, ok bool) {
	i := skipJSONSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return rec, false
	}
	i = skipJSONSpace(line, i+1)
	var seen uint8 // one bit per name: key, item, ts
	for {
		name, j, ok := scanJSONString(line, i)
		if !ok {
			return rec, false
		}
		j = skipJSONSpace(line, j)
		if j == len(line) || line[j] != ':' {
			return rec, false
		}
		j = skipJSONSpace(line, j+1)
		var bit uint8
		switch name {
		case "key":
			bit = 1
			rec.Key, j, ok = scanJSONString(line, j)
		case "item":
			bit = 2
			rec.Item, j, ok = scanJSONString(line, j)
		case "ts":
			bit = 4
			rec.TS, j, ok = scanJSONInt64(line, j)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return rec, false
		}
		seen |= bit
		i = skipJSONSpace(line, j)
		if i == len(line) {
			return rec, false
		}
		switch line[i] {
		case ',':
			i = skipJSONSpace(line, i+1)
		case '}':
			return rec, skipJSONSpace(line, i+1) == len(line)
		default:
			return rec, false
		}
	}
}

// skipJSONSpace returns the index of the first byte at or after i that
// is not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanJSONString reads the string token at b[i], returning its contents
// (aliasing b) and the index past its closing quote. ok is false unless
// the token is a string of ASCII bytes from 0x20 on with no escape.
func scanJSONString(b []byte, i int) (s string, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return "", i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return byteString(b[i+1 : j]), j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", j, false
		}
	}
	return "", len(b), false
}

// scanJSONInt64 reads the number token at b[i], returning its value and
// the index past it. ok is false unless the token is an integer literal
// (an optional minus, then 0 or digits not starting with 0) that fits an
// int64. A fraction or exponent stops the scan at '.', 'e' or 'E', which
// the caller then refuses as the next token.
func scanJSONInt64(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == 19 { // 20 digits exceed every int64
			return 0, i, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch n := i - start; {
	case n == 0 || n > 1 && b[start] == '0':
		return 0, i, false
	case neg && u <= 1<<63:
		return int64(-u), i, true
	case !neg && u < 1<<63:
		return int64(u), i, true
	}
	return 0, i, false
}
