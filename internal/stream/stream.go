// Package stream generates the synthetic item streams the experiments
// consume: streams with a known number of distinct items under several
// duplication models (none, uniform replication, Zipf popularity), plus a
// word-stream helper for the text examples.
//
// Every generator is deterministic given its seed and emits 64-bit item
// identifiers; sketches hash these through their own universal hash, so the
// identifiers' structure is irrelevant (verified by the core package's
// hash-ablation tests). Identifiers are drawn from disjoint per-seed spaces
// so replicated experiments see independent populations.
package stream

import (
	"fmt"

	"repro/internal/xrand"
)

// Stream yields a finite sequence of items. Next returns the next item and
// whether one was available.
type Stream interface {
	Next() (item uint64, ok bool)
	// Distinct returns the exact number of distinct items the full stream
	// contains (ground truth for error measurement).
	Distinct() int
}

// ForEach drains s, invoking fn on every item.
func ForEach(s Stream, fn func(uint64)) {
	for {
		item, ok := s.Next()
		if !ok {
			return
		}
		fn(item)
	}
}

// BatchStream is optionally implemented by streams that can fill a caller
// buffer in one call, avoiding an interface dispatch per item. NextBatch
// must yield exactly the items Next would, in order.
type BatchStream interface {
	Stream
	// NextBatch fills dst with up to len(dst) items and returns how many
	// were produced; 0 means the stream is exhausted (given len(dst) > 0).
	NextBatch(dst []uint64) int
}

// ForEachBatch drains s through fn in batches of at most len(buf) items,
// using the stream's native NextBatch when it has one. The batch passed to
// fn aliases buf and is only valid until fn returns. Panics if buf is
// empty.
func ForEachBatch(s Stream, buf []uint64, fn func(batch []uint64)) {
	if len(buf) == 0 {
		panic("stream: ForEachBatch with empty buffer")
	}
	if bs, ok := s.(BatchStream); ok {
		for {
			n := bs.NextBatch(buf)
			if n == 0 {
				return
			}
			fn(buf[:n])
		}
	}
	for {
		n := 0
		for n < len(buf) {
			item, ok := s.Next()
			if !ok {
				break
			}
			buf[n] = item
			n++
		}
		if n == 0 {
			return
		}
		fn(buf[:n])
	}
}

// Distinct is a stream of exactly n distinct items, each appearing once.
// Item identities are scrambled mixes of a per-stream base, so two streams
// with different seeds are disjoint with overwhelming probability.
type Distinct struct {
	n    int
	i    int
	base uint64
}

// NewDistinct returns a stream of n distinct items derived from seed.
// It panics if n < 0.
func NewDistinct(n int, seed uint64) *Distinct {
	if n < 0 {
		panic(fmt.Sprintf("stream: negative cardinality %d", n))
	}
	return &Distinct{n: n, base: xrand.Mix64(seed) << 24}
}

// Next implements Stream.
func (d *Distinct) Next() (uint64, bool) {
	if d.i >= d.n {
		return 0, false
	}
	// Mix64 is bijective, so base+i are n distinct inputs and therefore n
	// distinct items.
	item := xrand.Mix64(d.base + uint64(d.i))
	d.i++
	return item, true
}

// NextBatch implements BatchStream: the whole chunk is generated in one
// mixing loop with no per-item dispatch.
func (d *Distinct) NextBatch(dst []uint64) int {
	n := d.n - d.i
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	base := d.base + uint64(d.i)
	for k := range dst[:n] {
		dst[k] = xrand.Mix64(base + uint64(k))
	}
	d.i += n
	return n
}

// Distinct implements Stream.
func (d *Distinct) Distinct() int { return d.n }

// Reset rewinds the stream to its beginning.
func (d *Distinct) Reset() { d.i = 0 }

// Duplicated replays a population of n distinct items for a total of
// length occurrences. The first n emissions cover every distinct item once
// (guaranteeing the ground truth); the remaining length−n are duplicates
// chosen by the popularity model.
type Duplicated struct {
	items  []uint64
	length int
	i      int
	r      *xrand.Rand
	pick   func() uint64
}

// DupModel selects how duplicate occurrences are distributed across the
// population.
type DupModel int

const (
	// DupUniform picks duplicate occurrences uniformly across items.
	DupUniform DupModel = iota
	// DupZipf picks duplicates with Zipf(1.1) popularity — a few heavy
	// items dominate, as in network flow traffic.
	DupZipf
)

// NewDuplicated returns a stream of length occurrences covering exactly n
// distinct items (length ≥ n required) with duplicates drawn per model.
func NewDuplicated(n, length int, model DupModel, seed uint64) *Duplicated {
	if n < 1 || length < n {
		panic(fmt.Sprintf("stream: invalid duplicated stream n=%d length=%d", n, length))
	}
	r := xrand.New(seed)
	base := xrand.Mix64(seed^0xd1b54a32d192ed03) << 24
	items := make([]uint64, n)
	for i := range items {
		items[i] = xrand.Mix64(base + uint64(i))
	}
	d := &Duplicated{items: items, length: length, r: r}
	switch model {
	case DupUniform:
		d.pick = func() uint64 { return items[r.Intn(n)] }
	case DupZipf:
		z := xrand.NewZipf(r, 1.1, uint64(n))
		d.pick = func() uint64 { return items[z.Next()] }
	default:
		panic(fmt.Sprintf("stream: unknown duplication model %d", model))
	}
	return d
}

// Next implements Stream.
func (d *Duplicated) Next() (uint64, bool) {
	if d.i >= d.length {
		return 0, false
	}
	var item uint64
	if d.i < len(d.items) {
		item = d.items[d.i] // cover each distinct item once, first
	} else {
		item = d.pick()
	}
	d.i++
	return item, true
}

// NextBatch implements BatchStream.
func (d *Duplicated) NextBatch(dst []uint64) int {
	n := 0
	for n < len(dst) && d.i < d.length {
		if d.i < len(d.items) {
			dst[n] = d.items[d.i] // cover each distinct item once, first
		} else {
			dst[n] = d.pick()
		}
		d.i++
		n++
	}
	return n
}

// Distinct implements Stream.
func (d *Duplicated) Distinct() int { return len(d.items) }

// Interleaved shuffles a Duplicated stream's emission order so duplicates
// and first occurrences interleave arbitrarily (the harder, realistic
// case). It materializes the stream once at construction.
type Interleaved struct {
	items []uint64
	n     int
	i     int
}

// NewInterleaved builds a fully shuffled stream with the same contents as
// NewDuplicated(n, length, model, seed).
func NewInterleaved(n, length int, model DupModel, seed uint64) *Interleaved {
	src := NewDuplicated(n, length, model, seed)
	buf := make([]uint64, 0, length)
	ForEach(src, func(x uint64) { buf = append(buf, x) })
	r := xrand.New(seed ^ 0x8e9d5aab)
	r.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
	return &Interleaved{items: buf, n: n}
}

// Next implements Stream.
func (s *Interleaved) Next() (uint64, bool) {
	if s.i >= len(s.items) {
		return 0, false
	}
	item := s.items[s.i]
	s.i++
	return item, true
}

// NextBatch implements BatchStream: a straight copy out of the
// materialized stream.
func (s *Interleaved) NextBatch(dst []uint64) int {
	n := copy(dst, s.items[s.i:])
	s.i += n
	return n
}

// Distinct implements Stream.
func (s *Interleaved) Distinct() int { return s.n }

// Words yields a stream of synthetic "words": Zipf-distributed tokens from
// a vocabulary of v words, emulating natural-language token frequencies
// (the book example of the paper's Section 2.1). The exact distinct count
// is the number of vocabulary words actually emitted.
type Words struct {
	vocab   int
	z       *xrand.Zipf
	length  int
	i       int
	seen    map[int]bool
	prefix  string
	current string
}

// NewWordsShared returns a word stream of the given length over a
// vocabulary of vocab words, Zipf exponent 1.05 (typical for text), whose
// vocabulary identity comes from vocabSeed while the token draws come
// from drawSeed: streams sharing
// vocabSeed draw overlapping word sets (e.g. two volumes of one book),
// with the overlap governed by Zipf coverage rather than being all or
// nothing.
func NewWordsShared(vocab, length int, vocabSeed, drawSeed uint64) *Words {
	if vocab < 1 || length < 0 {
		panic(fmt.Sprintf("stream: invalid word stream vocab=%d length=%d", vocab, length))
	}
	r := xrand.New(drawSeed)
	return &Words{
		vocab:  vocab,
		z:      xrand.NewZipf(r, 1.05, uint64(vocab)),
		length: length,
		seen:   make(map[int]bool),
		prefix: fmt.Sprintf("w%x-", xrand.Mix64(vocabSeed)&0xffff),
	}
}

// NextWord returns the next word and whether one was available.
func (w *Words) NextWord() (string, bool) {
	if w.i >= w.length {
		return "", false
	}
	k := int(w.z.Next())
	w.seen[k] = true
	w.i++
	w.current = fmt.Sprintf("%s%d", w.prefix, k)
	return w.current, true
}

// DistinctSoFar returns the exact number of distinct words emitted so far.
func (w *Words) DistinctSoFar() int { return len(w.seen) }
