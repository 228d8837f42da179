package sbitmap

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/exact"
	"repro/internal/fm"
	"repro/internal/hyperloglog"
	"repro/internal/linearcount"
	"repro/internal/loglog"
	"repro/internal/mrbitmap"
	"repro/internal/virtualbitmap"
)

// This file wraps each baseline sketch in a thin exported type so that the
// whole zoo shares one capability surface: every counter satisfies Counter,
// every counter serializes through the tagged envelope of marshal.go, the
// union-capable ones implement Mergeable, and the saturating ones implement
// Saturable. The wrappers add no state beyond the internal sketch; they
// exist so capabilities can be attached uniformly without leaking the
// internal packages into the public API. Two kinds that count through one
// internal sketch embed one unexported face holding their Counter and
// BulkAdder methods (registers, bitmap); each keeps Merge and its codec,
// which name its kind.

// Saturable is implemented by counters that have a configured operating
// range and can report having run past it (their estimate is then a pinned
// lower bound rather than an unbiased value).
type Saturable interface {
	Saturated() bool
}

// registers is the Counter face HyperLogLog and LogLog share: package
// hyperloglog's packed registers, under the estimator the sketch's shared
// state carries.
type registers struct{ sk hyperloglog.Sketch }

// Add offers an item; it reports whether a register grew.
func (c *registers) Add(item []byte) bool { return c.sk.Add(item) }

// AddUint64 offers a 64-bit item.
func (c *registers) AddUint64(item uint64) bool { return c.sk.AddUint64(item) }

// AddString offers a string item without a []byte conversion.
func (c *registers) AddString(item string) bool { return c.sk.AddString(item) }

// Estimate returns the kind's bias-corrected estimate.
func (c *registers) Estimate() float64 { return c.sk.Estimate() }

// SizeBits returns the summary memory footprint in bits.
func (c *registers) SizeBits() int { return c.sk.SizeBits() }

// Footprint returns the counter's resident process memory in bytes.
func (c *registers) Footprint() int { return c.sk.Footprint() }

// Reset clears the counter for reuse.
func (c *registers) Reset() { c.sk.Reset() }

// HyperLogLog is the root-package face of the Flajolet et al. (2007)
// HyperLogLog counter. Create one with Spec.New or Unmarshal.
type HyperLogLog struct{ registers }

// Merge implements Mergeable by register-wise maximum: the result
// summarizes the union of the two streams. The other counter must be a
// HyperLogLog with the same register count (and hash function).
func (c *HyperLogLog) Merge(other Counter) error {
	o, ok := other.(*HyperLogLog)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into *HyperLogLog: %w", other, ErrNotMergeable)
	}
	return c.sk.Merge(&o.sk)
}

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *HyperLogLog) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindHLL, &c.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The restored
// counter keeps the counter's hasher, the default seed's for a zero
// counter; use Unmarshal with options to restore under a different hash
// configuration.
func (c *HyperLogLog) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindHLL)
	if err != nil {
		return err
	}
	sk, err := hyperloglog.Unmarshal(payload, c.sk.Hasher())
	if err != nil {
		return err
	}
	c.sk = *sk
	return nil
}

// LogLog is the root-package face of the Durand–Flajolet (2003) LogLog
// counter: HyperLogLog's registers under LogLog's estimator. Create one
// with Spec.New or Unmarshal.
type LogLog struct{ registers }

// Merge implements Mergeable by register-wise maximum (union semantics).
func (c *LogLog) Merge(other Counter) error {
	o, ok := other.(*LogLog)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into *LogLog: %w", other, ErrNotMergeable)
	}
	return c.sk.Merge(&o.sk)
}

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *LogLog) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindLogLog, &c.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, keeping the
// counter's hasher as HyperLogLog's does.
func (c *LogLog) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindLogLog)
	if err != nil {
		return err
	}
	sk, err := loglog.Unmarshal(payload, c.sk.Hasher())
	if err != nil {
		return err
	}
	c.sk = *sk
	return nil
}

// FM is the root-package face of the Flajolet–Martin (1985) PCSA counter.
// Create one with Spec.New or Unmarshal.
type FM struct{ sk *fm.Sketch }

// Add offers an item; it reports whether any register bit changed.
func (c *FM) Add(item []byte) bool { return c.sk.Add(item) }

// AddUint64 offers a 64-bit item.
func (c *FM) AddUint64(item uint64) bool { return c.sk.AddUint64(item) }

// AddString offers a string item without a []byte conversion.
func (c *FM) AddString(item string) bool { return c.sk.AddString(item) }

// Estimate returns the PCSA estimate.
func (c *FM) Estimate() float64 { return c.sk.Estimate() }

// SizeBits returns the summary memory footprint in bits.
func (c *FM) SizeBits() int { return c.sk.SizeBits() }

// Footprint returns the counter's resident process memory in bytes.
func (c *FM) Footprint() int { return c.sk.Footprint() }

// Reset clears the counter for reuse.
func (c *FM) Reset() { c.sk.Reset() }

// Merge implements Mergeable by register-wise OR (union semantics).
func (c *FM) Merge(other Counter) error {
	o, ok := other.(*FM)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into *FM: %w", other, ErrNotMergeable)
	}
	return c.sk.Merge(o.sk)
}

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *FM) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindFM, c.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *FM) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindFM)
	if err != nil {
		return err
	}
	if c.sk == nil {
		c.sk = &fm.Sketch{}
	}
	return c.sk.UnmarshalBinary(payload)
}

// bitmap is the Counter face LinearCounting and VirtualBitmap share:
// package linearcount's bitmap, counting every item or a sampled
// substream.
type bitmap struct{ sk linearcount.Sketch }

// Add offers an item; it reports whether a bucket changed.
func (c *bitmap) Add(item []byte) bool { return c.sk.Add(item) }

// AddUint64 offers a 64-bit item.
func (c *bitmap) AddUint64(item uint64) bool { return c.sk.AddUint64(item) }

// AddString offers a string item without a []byte conversion.
func (c *bitmap) AddString(item string) bool { return c.sk.AddString(item) }

// Estimate returns n̂ = m·ln(m/Z), scaled back by 1/r for a sampled
// substream.
func (c *bitmap) Estimate() float64 { return c.sk.Estimate() }

// SizeBits returns the summary memory footprint in bits.
func (c *bitmap) SizeBits() int { return c.sk.SizeBits() }

// Footprint returns the counter's resident process memory in bytes.
func (c *bitmap) Footprint() int { return c.sk.Footprint() }

// Reset clears the counter for reuse.
func (c *bitmap) Reset() { c.sk.Reset() }

// Saturated implements Saturable: a full bitmap caps the estimate.
func (c *bitmap) Saturated() bool { return c.sk.Saturated() }

// LinearCounting is the root-package face of the Whang et al. (1990)
// linear-counting sketch, accurate while n stays well below mbits·ln(mbits).
// Create one with Spec.New or Unmarshal.
type LinearCounting struct{ bitmap }

// Merge implements Mergeable by bitmap OR (union semantics). The bitmaps
// must have equal size (and hash function).
func (c *LinearCounting) Merge(other Counter) error {
	o, ok := other.(*LinearCounting)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into *LinearCounting: %w", other, ErrNotMergeable)
	}
	return c.sk.Merge(&o.sk)
}

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *LinearCounting) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindLinearCount, &c.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, keeping the
// counter's hasher as HyperLogLog's does.
func (c *LinearCounting) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindLinearCount)
	if err != nil {
		return err
	}
	sk, err := linearcount.Unmarshal(payload, c.sk.Hasher())
	if err != nil {
		return err
	}
	c.sk = *sk
	return nil
}

// VirtualBitmap is the root-package face of the Estan et al. (2006)
// virtual bitmap: linear counting over a hash-sampled substream. Create
// one with Spec.New or Unmarshal.
type VirtualBitmap struct{ bitmap }

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *VirtualBitmap) MarshalBinary() ([]byte, error) {
	return appendEnvelope(KindVirtualBitmap, virtualbitmap.Marshal(&c.sk)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, keeping the
// counter's hasher as HyperLogLog's does.
func (c *VirtualBitmap) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindVirtualBitmap)
	if err != nil {
		return err
	}
	sk, err := virtualbitmap.Unmarshal(payload, c.sk.Hasher())
	if err != nil {
		return err
	}
	c.sk = *sk
	return nil
}

// MRBitmap is the root-package face of the Estan et al. (2006)
// multiresolution bitmap. Create one with Spec.New or Unmarshal.
type MRBitmap struct{ sk *mrbitmap.Sketch }

// Add offers an item; it reports whether a bucket changed.
func (c *MRBitmap) Add(item []byte) bool { return c.sk.Add(item) }

// AddUint64 offers a 64-bit item.
func (c *MRBitmap) AddUint64(item uint64) bool { return c.sk.AddUint64(item) }

// AddString offers a string item without a []byte conversion.
func (c *MRBitmap) AddString(item string) bool { return c.sk.AddString(item) }

// Estimate returns the multiresolution estimate.
func (c *MRBitmap) Estimate() float64 { return c.sk.Estimate() }

// SizeBits returns the summary memory footprint in bits.
func (c *MRBitmap) SizeBits() int { return c.sk.SizeBits() }

// Footprint returns the counter's resident process memory in bytes.
func (c *MRBitmap) Footprint() int { return c.sk.Footprint() }

// Reset clears the counter for reuse.
func (c *MRBitmap) Reset() { c.sk.Reset() }

// Saturated implements Saturable: even the coarsest component is past its
// usable load and the estimate blows up.
func (c *MRBitmap) Saturated() bool { return c.sk.Saturated() }

// Merge implements Mergeable by component-wise bitmap OR (union
// semantics). The layouts must be identical (and the hash functions equal).
func (c *MRBitmap) Merge(other Counter) error {
	o, ok := other.(*MRBitmap)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into *MRBitmap: %w", other, ErrNotMergeable)
	}
	return c.sk.Merge(o.sk)
}

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *MRBitmap) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindMRBitmap, c.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *MRBitmap) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindMRBitmap)
	if err != nil {
		return err
	}
	if c.sk == nil {
		c.sk = &mrbitmap.Sketch{}
	}
	return c.sk.UnmarshalBinary(payload)
}

// AdaptiveSampler is the root-package face of Wegman's adaptive sampler.
// Create one with Spec.New or Unmarshal.
type AdaptiveSampler struct{ sk *adaptive.Sampler }

// Add offers an item; it reports whether the sample changed.
func (c *AdaptiveSampler) Add(item []byte) bool { return c.sk.Add(item) }

// AddUint64 offers a 64-bit item.
func (c *AdaptiveSampler) AddUint64(item uint64) bool { return c.sk.AddUint64(item) }

// AddString offers a string item without a []byte conversion.
func (c *AdaptiveSampler) AddString(item string) bool { return c.sk.AddString(item) }

// Estimate returns n̂ = |S|·2^d.
func (c *AdaptiveSampler) Estimate() float64 { return c.sk.Estimate() }

// SizeBits returns the memory footprint under the comparison accounting.
func (c *AdaptiveSampler) SizeBits() int { return c.sk.SizeBits() }

// Footprint returns the counter's resident process memory in bytes.
func (c *AdaptiveSampler) Footprint() int { return c.sk.Footprint() }

// Reset clears the counter for reuse.
func (c *AdaptiveSampler) Reset() { c.sk.Reset() }

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *AdaptiveSampler) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindAdaptive, c.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *AdaptiveSampler) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindAdaptive)
	if err != nil {
		return err
	}
	if c.sk == nil {
		c.sk = &adaptive.Sampler{}
	}
	return c.sk.UnmarshalBinary(payload)
}

// Exact is the root-package face of the exact (linear-memory) counter.
// Create one with Spec.New or Unmarshal.
type Exact struct{ c *exact.Counter }

// Add offers an item and reports whether it was new.
func (c *Exact) Add(item []byte) bool { return c.c.Add(item) }

// AddUint64 offers a 64-bit item.
func (c *Exact) AddUint64(item uint64) bool { return c.c.AddUint64(item) }

// AddString offers a string item without a []byte conversion.
func (c *Exact) AddString(item string) bool { return c.c.AddString(item) }

// Estimate returns the exact distinct count.
func (c *Exact) Estimate() float64 { return c.c.Estimate() }

// Count returns the exact distinct count as an int.
func (c *Exact) Count() int { return c.c.Count() }

// SizeBits returns the fingerprint-storage footprint (128 bits per item).
func (c *Exact) SizeBits() int { return c.c.SizeBits() }

// Footprint returns the counter's resident process memory in bytes.
func (c *Exact) Footprint() int { return c.c.Footprint() }

// Reset clears the counter for reuse.
func (c *Exact) Reset() { c.c.Reset() }

// MarshalBinary implements encoding.BinaryMarshaler via the envelope.
func (c *Exact) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindExact, c.c)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Exact) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindExact)
	if err != nil {
		return err
	}
	if c.c == nil {
		c.c = &exact.Counter{}
	}
	return c.c.UnmarshalBinary(payload)
}

var (
	_ Counter   = (*HyperLogLog)(nil)
	_ Counter   = (*LogLog)(nil)
	_ Counter   = (*FM)(nil)
	_ Counter   = (*LinearCounting)(nil)
	_ Counter   = (*VirtualBitmap)(nil)
	_ Counter   = (*MRBitmap)(nil)
	_ Counter   = (*AdaptiveSampler)(nil)
	_ Counter   = (*Exact)(nil)
	_ Mergeable = (*HyperLogLog)(nil)
	_ Mergeable = (*LogLog)(nil)
	_ Mergeable = (*FM)(nil)
	_ Mergeable = (*LinearCounting)(nil)
	_ Mergeable = (*MRBitmap)(nil)
	_ Saturable = (*SBitmap)(nil)
	_ Saturable = (*LinearCounting)(nil)
	_ Saturable = (*VirtualBitmap)(nil)
	_ Saturable = (*MRBitmap)(nil)
)
