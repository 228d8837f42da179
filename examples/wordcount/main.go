// Wordcount: the paper's Section 2.1 example — "if x_i is the i-th word in
// a book, then n is the number of unique words in the book" — plus the
// merge/serialize workflow a distributed word-count would use.
//
// Two "volumes" of a synthetic book are counted by independent workers
// with mergeable HyperLogLog sketches — worker 2 ships its sketch as a
// serialized snapshot, the way a distributed word-count would — while an
// S-bitmap counts the whole stream (demonstrating the one-pass,
// single-stream design point: the S-bitmap trades mergeability for
// scale-invariant accuracy).
//
// Run with: go run ./examples/wordcount
package main

import (
	"fmt"
	"log"

	sbitmap "repro"
	"repro/internal/stream"
)

func main() {
	const vocab = 60_000 // realistic book vocabulary
	const wordsPerVolume = 400_000

	// Worker sketches must share a configuration (and seed) to be merged
	// meaningfully; one Spec pins both down.
	workerSpec := sbitmap.MustSpec("hll:mbits=20480,seed=97") // 4096 registers
	worker1, err := workerSpec.New()
	if err != nil {
		log.Fatal(err)
	}
	worker2, err := workerSpec.New()
	if err != nil {
		log.Fatal(err)
	}

	// The S-bitmap sees the concatenated stream (single-pass design).
	whole, err := sbitmap.New(2*vocab, 0.01, sbitmap.WithSeed(97))
	if err != nil {
		log.Fatal(err)
	}
	truth, err := sbitmap.MustSpec("exact").New()
	if err != nil {
		log.Fatal(err)
	}

	// Volume 1 and volume 2 draw from the same vocabulary with Zipf token
	// frequencies, so their word sets overlap heavily (but not totally) —
	// the case where naive "count each, add the counts" fails and union
	// semantics matter.
	vol1 := stream.NewWordsShared(vocab, wordsPerVolume, 1, 101)
	for {
		w, ok := vol1.NextWord()
		if !ok {
			break
		}
		worker1.AddString(w)
		whole.AddString(w)
		truth.AddString(w)
	}
	vol1Distinct := vol1.DistinctSoFar()

	vol2 := stream.NewWordsShared(vocab, wordsPerVolume, 1, 202) // same vocabulary, fresh draws
	for {
		w, ok := vol2.NextWord()
		if !ok {
			break
		}
		worker2.AddString(w)
		whole.AddString(w)
		truth.AddString(w)
	}

	fmt.Printf("volume 1: %d tokens, %d distinct words (exact)\n", wordsPerVolume, vol1Distinct)
	fmt.Printf("volume 2: %d tokens\n\n", wordsPerVolume)

	naiveSum := worker1.Estimate() + worker2.Estimate()

	// Worker 2 ships its sketch; the coordinator restores and merges it.
	blob, err := sbitmap.Marshal(worker2)
	if err != nil {
		log.Fatal(err)
	}
	shipped, err := sbitmap.Unmarshal(blob, sbitmap.WithSeed(97))
	if err != nil {
		log.Fatal(err)
	}
	if err := sbitmap.Merge(worker1, shipped); err != nil {
		log.Fatal(err)
	}
	merged := worker1.Estimate()
	exactUnion := truth.Estimate()

	fmt.Printf("exact distinct words across both volumes: %.0f\n\n", exactUnion)
	fmt.Printf("HLL worker estimates added naively:  %.0f  (%+.1f%% — double-counts the overlap)\n",
		naiveSum, 100*(naiveSum/exactUnion-1))
	fmt.Printf("HLL sketches merged (worker 2 shipped as a %d-byte snapshot): %.0f  (%+.1f%%)\n",
		len(blob), merged, 100*(merged/exactUnion-1))
	fmt.Printf("S-bitmap over the whole stream:      %.0f  (%+.1f%%, with %d bits)\n",
		whole.Estimate(), 100*(whole.Estimate()/exactUnion-1), whole.SizeBits())

	fmt.Println("\ntakeaway: HLL merges (register-max is a union); the S-bitmap does not merge")
	fmt.Println("(sbitmap.Merge fails with ErrNotMergeable — partition and sum instead), but on")
	fmt.Println("a single stream it holds the same error from 1 word to the full book.")
}
