package sbitmap

// Batch ingestion. The paper's closing cost claim (Section 3: the S-bitmap
// needs "similar or less computational cost" than the loglog family) is
// about per-item hash-and-probe work; a deployment ingesting millions of
// items per second additionally pays per-item interface dispatch and
// per-probe bounds checks that the paper's cost model does not include.
// The batch surface removes those: every sketch in this module ingests
// whole slices with the hash loop fused to the insert loop. The keyed
// Store builds on the same surface: its batch methods group records by
// key, take each stripe's lock once per batch, and feed each key's run
// through BulkAdder.

// BulkAdder is the batch-ingestion capability. Every counter constructed
// by this module (directly or via Spec.New) implements it natively; for
// foreign Counter implementations use the package-level AddBatch64 /
// AddBatchString, which fall back to an item-at-a-time loop.
//
// Both methods are state-equivalent to offering the items one at a time in
// slice order through AddUint64 / AddString: the resulting sketch state is
// bit-identical, and the returned count equals the number of adds that
// would have reported true.
type BulkAdder interface {
	// AddBatch64 offers each 64-bit item in order and returns how many
	// changed the sketch state.
	AddBatch64(items []uint64) int
	// AddBatchString offers each string item in order and returns how many
	// changed the sketch state.
	AddBatchString(items []string) int
}

// AddBatch64 offers every item to c, using the native batch path when c
// implements BulkAdder and an item-at-a-time loop otherwise. It returns
// the number of items that changed the counter's state.
func AddBatch64(c Counter, items []uint64) int {
	if b, ok := c.(BulkAdder); ok {
		return b.AddBatch64(items)
	}
	changed := 0
	for _, item := range items {
		if c.AddUint64(item) {
			changed++
		}
	}
	return changed
}

// AddBatchString offers every string item to c, using the native batch
// path when c implements BulkAdder and an item-at-a-time loop otherwise.
// It returns the number of items that changed the counter's state.
func AddBatchString(c Counter, items []string) int {
	if b, ok := c.(BulkAdder); ok {
		return b.AddBatchString(items)
	}
	changed := 0
	for _, item := range items {
		if c.AddString(item) {
			changed++
		}
	}
	return changed
}

// AddBatch64 implements BulkAdder on the S-bitmap: the hash loop is fused
// with Algorithm 2's insert loop, with the fill level and threshold table
// held in locals across the batch.
func (s *SBitmap) AddBatch64(items []uint64) int { return s.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder for string items.
func (s *SBitmap) AddBatchString(items []string) int { return s.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *HyperLogLog) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *HyperLogLog) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *LogLog) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *LogLog) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *FM) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *FM) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *LinearCounting) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *LinearCounting) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *VirtualBitmap) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *VirtualBitmap) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *MRBitmap) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *MRBitmap) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *AdaptiveSampler) AddBatch64(items []uint64) int { return c.sk.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *AdaptiveSampler) AddBatchString(items []string) int { return c.sk.AddBatchString(items) }

// AddBatch64 implements BulkAdder.
func (c *Exact) AddBatch64(items []uint64) int { return c.c.AddBatch64(items) }

// AddBatchString implements BulkAdder.
func (c *Exact) AddBatchString(items []string) int { return c.c.AddBatchString(items) }

var (
	_ BulkAdder = (*SBitmap)(nil)
	_ BulkAdder = (*HyperLogLog)(nil)
	_ BulkAdder = (*LogLog)(nil)
	_ BulkAdder = (*FM)(nil)
	_ BulkAdder = (*LinearCounting)(nil)
	_ BulkAdder = (*VirtualBitmap)(nil)
	_ BulkAdder = (*MRBitmap)(nil)
	_ BulkAdder = (*AdaptiveSampler)(nil)
	_ BulkAdder = (*Exact)(nil)
)
