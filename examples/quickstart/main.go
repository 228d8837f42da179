// Quickstart: count distinct items in a duplicated stream with an
// S-bitmap, compare against the exact answer, and show serialization.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	sbitmap "repro"
)

func main() {
	// Dimension the sketch: cardinalities up to one million, ±1% RRMSE.
	// Equation (7) of the paper makes this ~31.5 kilobits (< 4 KiB).
	sk, err := sbitmap.New(1e6, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("S-bitmap dimensioned: %d bits for N=1e6 at ±%.1f%%\n\n",
		sk.SizeBits(), 100*sk.Epsilon())

	// Feed a stream with heavy duplication: 250k distinct user IDs, each
	// appearing 1-8 times (2M stream records overall).
	exact, err := sbitmap.MustSpec("exact").New()
	if err != nil {
		log.Fatal(err)
	}
	records := 0
	for user := uint64(0); user < 250_000; user++ {
		times := int(user%8) + 1
		for i := 0; i < times; i++ {
			sk.AddUint64(user)
			exact.AddUint64(user)
			records++
		}
	}

	est := sk.Estimate()
	truth := exact.Estimate()
	fmt.Printf("stream records:       %d\n", records)
	fmt.Printf("exact distinct users: %.0f (memory %d bits)\n", truth, exact.SizeBits())
	fmt.Printf("S-bitmap estimate:    %.0f (memory %d bits)\n", est, sk.SizeBits())
	fmt.Printf("relative error:       %+.3f%%\n\n", 100*(est/truth-1))

	// Sketches serialize; a receiver can estimate without the hash seed.
	blob, err := sk.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	restored, err := sbitmap.Unmarshal(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized to %d bytes; restored estimate %.0f\n", len(blob), restored.Estimate())

	// The same sketch is one declarative Spec away — the form CLI flags
	// and config files use. ParseSpec/String round-trip, and every Kind
	// (hll, loglog, fm, linearcount, ...) constructs the same way.
	spec, err := sbitmap.ParseSpec("sbitmap:n=1e6,eps=0.01")
	if err != nil {
		log.Fatal(err)
	}
	fromSpec, err := spec.New()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec %q builds the same sketch: %d bits\n", spec, fromSpec.SizeBits())

	// String keys work too (and AddString avoids the []byte conversion).
	words, _ := sbitmap.New(1e4, 0.03)
	for _, w := range []string{"to", "be", "or", "not", "to", "be"} {
		words.AddString(w)
	}
	fmt.Printf("\ndistinct words in 'to be or not to be': %.0f (exact: 4)\n", words.Estimate())
}
