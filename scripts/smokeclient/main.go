// Command smokeclient is the client-library half of the sketchd smoke
// test (scripts/smoke_sketchd.sh): it ships one binary add frame through
// internal/server.Client, proving the compact wire path end to end from a
// separate process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/server"
)

func main() {
	var (
		base  = flag.String("base", "http://127.0.0.1:18287", "service base URL")
		key   = flag.String("key", "bob", "key to ingest under")
		items = flag.Int("items", 250, "distinct uint64 items to ingest")
	)
	flag.Parse()
	keys := make([]string, *items)
	vals := make([]uint64, *items)
	for i := range keys {
		keys[i] = *key
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	client := server.NewClient(*base)
	res, err := client.AddFrame(context.Background(), &server.Frame{Keys: keys, Items64: vals})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smokeclient: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("smokeclient: %d records ingested (%d changed)\n", res.Records, res.Changed)
}
