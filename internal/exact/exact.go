// Package exact provides the ground-truth distinct counter used by the
// experiments and examples: a hash-set counter that is exact but pays the
// linear memory cost the paper's Section 1 explains streaming algorithms
// must avoid. Its SizeBits method makes that cost visible next to the
// sketches' footprints.
package exact

import (
	"encoding/binary"
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/uhash"
)

// Counter counts distinct items exactly by retaining a 128-bit fingerprint
// of every distinct item seen. (Fingerprinting keeps memory bounded by the
// distinct count rather than total key bytes; a 128-bit fingerprint makes
// collisions negligible below ~2^60 items.) Not safe for concurrent use.
type Counter struct {
	set map[[2]uint64]struct{}
	h   uhash.Hasher
}

// New returns an empty exact counter.
func New() *Counter {
	return &Counter{set: make(map[[2]uint64]struct{}), h: uhash.NewMixer(0x0ddba11)}
}

// Add offers an item and reports whether it was new.
func (c *Counter) Add(item []byte) bool {
	hi, lo := c.h.Sum128(item)
	return c.insert(hi, lo)
}

// AddUint64 offers a 64-bit item.
func (c *Counter) AddUint64(item uint64) bool {
	hi, lo := c.h.Sum128Uint64(item)
	return c.insert(hi, lo)
}

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (c *Counter) AddString(item string) bool {
	hi, lo := c.h.Sum128String(item)
	return c.insert(hi, lo)
}

func (c *Counter) insert(hi, lo uint64) bool {
	k := [2]uint64{hi, lo}
	if _, ok := c.set[k]; ok {
		return false
	}
	c.set[k] = struct{}{}
	return true
}

// AddBatch64 offers a slice of 64-bit items and returns how many were new;
// state-equivalent to AddUint64 on each item in order, with the hashing
// batched ahead of the set inserts.
func (c *Counter) AddBatch64(items []uint64) int {
	return uhash.Batch64(c.h, nil, items, c.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (c *Counter) AddBatchString(items []string) int {
	return uhash.BatchString(c.h, nil, items, c.insertBatch)
}

func (c *Counter) insertBatch(hi, lo []uint64) int {
	changed := 0
	for i := range hi {
		if c.insert(hi[i], lo[i]) {
			changed++
		}
	}
	return changed
}

// Count returns the exact number of distinct items seen.
func (c *Counter) Count() int { return len(c.set) }

// Estimate returns the count as a float64, satisfying the common sketch
// interface so the exact counter can stand in as a "sketch" in harnesses.
func (c *Counter) Estimate() float64 { return float64(len(c.set)) }

// SizeBits returns the fingerprint-storage footprint: 128 bits per
// distinct item (map overhead excluded, consistent with the paper's
// summary-statistic accounting).
func (c *Counter) SizeBits() int { return 128 * len(c.set) }

// Footprint returns the counter's resident process memory in bytes: the
// struct and the fingerprint set (estimated at Go's map cost of roughly
// key + 16 bytes of bucket overhead per entry).
func (c *Counter) Footprint() int {
	return int(unsafe.Sizeof(*c)) + len(c.set)*(16+16)
}

// Reset clears the counter for reuse.
func (c *Counter) Reset() { c.set = make(map[[2]uint64]struct{}) }

// MarshalBinary serializes the fingerprint set (sorted for a deterministic
// encoding). The counter's internal hash seed is fixed, so a restored
// counter keeps deduplicating consistently.
func (c *Counter) MarshalBinary() ([]byte, error) {
	fps := make([][2]uint64, 0, len(c.set))
	for k := range c.set {
		fps = append(fps, k)
	}
	sort.Slice(fps, func(i, j int) bool {
		if fps[i][0] != fps[j][0] {
			return fps[i][0] < fps[j][0]
		}
		return fps[i][1] < fps[j][1]
	})
	buf := make([]byte, 0, 8+16*len(fps))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(fps)))
	for _, k := range fps {
		buf = binary.LittleEndian.AppendUint64(buf, k[0])
		buf = binary.LittleEndian.AppendUint64(buf, k[1])
	}
	return buf, nil
}

// UnmarshalBinary reconstructs the counter in place from MarshalBinary
// output.
func (c *Counter) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("exact: truncated serialization")
	}
	count64 := binary.LittleEndian.Uint64(data)
	// Bound count by the actual body size before any multiplication so a
	// corrupt header cannot overflow the length check.
	if count64 > uint64(len(data)-8)/16 {
		return fmt.Errorf("exact: fingerprint count %d exceeds body of %d bytes", count64, len(data)-8)
	}
	count := int(count64)
	if len(data) != 8+16*count {
		return fmt.Errorf("exact: fingerprint body %d bytes, want %d", len(data)-8, 16*count)
	}
	set := make(map[[2]uint64]struct{}, count)
	for i := 0; i < count; i++ {
		hi := binary.LittleEndian.Uint64(data[8+16*i:])
		lo := binary.LittleEndian.Uint64(data[16+16*i:])
		set[[2]uint64{hi, lo}] = struct{}{}
	}
	if len(set) != count {
		return fmt.Errorf("exact: serialized fingerprints contain duplicates")
	}
	c.set = set
	if c.h == nil {
		c.h = uhash.NewMixer(0x0ddba11)
	}
	return nil
}

// Unmarshal reconstructs a counter from MarshalBinary output.
func Unmarshal(data []byte) (*Counter, error) {
	c := &Counter{h: uhash.NewMixer(0x0ddba11)}
	if err := c.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return c, nil
}
