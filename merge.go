package sbitmap

import (
	"errors"
	"fmt"
)

// ErrNotMergeable reports that a counter has no union-merge operation.
//
// Union merging is a property of the sketch's mathematics, not of this
// library: the register/bitmap sketches (HyperLogLog, LogLog, FM, linear
// counting, multiresolution bitmap) are state-idempotent under union, so
// OR-ing or max-ing two same-configured sketches yields exactly the sketch
// of the concatenated streams. The S-bitmap is not — its sampling rate
// depends on its fill history, so two S-bitmaps of overlapping streams
// cannot be combined. The supported aggregation for S-bitmaps is
// partitioning instead: route disjoint parts of the stream to independent
// sketches and SUM their estimates, which is what a keyed Store does per
// key and the cluster ring does per peer. Store.Merge unions per-key
// counters and so needs a Mergeable kind, while partitioning a Store BY
// key across machines works for every kind.
var ErrNotMergeable = errors.New("counter does not support union merge")

// Mergeable is implemented by counters whose state supports union merging:
// after dst.Merge(src), dst summarizes the union of the two input streams.
// Both counters must have identical configuration (dimensions and hash
// function); Merge fails otherwise.
type Mergeable interface {
	Merge(other Counter) error
}

// Merge merges src into dst when dst supports union merging, and returns
// an error wrapping ErrNotMergeable otherwise (test with errors.Is). It is
// the one-call form of the Mergeable type assertion for distributed
// aggregation loops that handle heterogeneous counters.
func Merge(dst, src Counter) error {
	if m, ok := dst.(Mergeable); ok {
		return m.Merge(src)
	}
	return fmt.Errorf("sbitmap: %T: %w", dst, ErrNotMergeable)
}
