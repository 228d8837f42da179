// Command tortureclient is the crash-torture rig's two halves (see
// scripts/smoke_wal.sh): "feed" streams deterministic add frames into a
// sketchd synchronously — one frame in flight, progress recorded only
// after the server's ack — until the driver kill -9s the server under
// it; "verify" rebuilds a twin Store from exactly the acked frame
// prefix and checks the restarted server against it key by key.
//
// Because feeding is synchronous, at most one frame is ever in doubt
// when the server dies: appended to the WAL and applied but its ack
// lost. The verifier therefore accepts the acked prefix N or N+1 —
// anything else (a lost acked frame, a double-applied one, torn state)
// fails. The resolved count is written back so the next feed round
// continues the sequence exactly where the server's recovered state
// ends.
//
//	tortureclient -mode feed   -base URL -spec S -acked FILE -count N
//	tortureclient -mode verify -base URL -spec S -acked FILE
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	sbitmap "repro"
	"repro/internal/server"
)

// tortureKeys bounds the key space: frames keep landing on the same
// counters, so replay order and duplication errors change visible state
// (the S-bitmap's Add is state-dependent — a doubled frame moves the
// estimate).
const tortureKeys = 23

// frameAt returns deterministic frame number i: a few records over the
// shared key space with items unique to (i, j), so every frame mutates
// state and two different prefixes are distinguishable.
func frameAt(i int) (keys []string, items []uint64) {
	for j := 0; j < 4; j++ {
		keys = append(keys, fmt.Sprintf("flow-%02d", (i*7+j*3)%tortureKeys))
		items = append(items, uint64(i)<<16|uint64(j))
	}
	return keys, items
}

func readAcked(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, fmt.Errorf("acked file %s: %v", path, err)
	}
	return n, nil
}

func writeAcked(path string, n int) error {
	return os.WriteFile(path, []byte(fmt.Sprintf("%d\n", n)), 0o644)
}

// feed streams frames [start, start+count) synchronously, recording
// progress after each ack. A transport error is the expected crash:
// report how far we provably got and exit clean — the verifier decides
// whether the recovered server honored every ack.
func feed(client *server.Client, ackedPath string, count int) error {
	start, err := readAcked(ackedPath)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := start; i < start+count; i++ {
		keys, items := frameAt(i)
		if _, err := client.AddFrame(ctx, &server.Frame{Keys: keys, Items64: items}); err != nil {
			fmt.Printf("torture feed: server died at frame %d (%d acked): %v\n", i, i-start, err)
			return nil
		}
		if err := writeAcked(ackedPath, i+1); err != nil {
			return err
		}
	}
	fmt.Printf("torture feed: all %d frames acked\n", count)
	return nil
}

// twinOf builds the twin store fed exactly frames [0, n).
func twinOf(spec sbitmap.Spec, n int) (*sbitmap.Store[string], error) {
	st, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		keys, items := frameAt(i)
		st.AddBatch64(keys, items)
	}
	return st, nil
}

// matches checks the server against a twin: same key count, every key's
// estimate exactly equal (bit-identical counter state implies exactly
// equal estimates; the S-bitmap's state dependence makes the converse
// overwhelmingly likely across 23 keys).
func matches(ctx context.Context, client *server.Client, twin *sbitmap.Store[string]) (bool, string) {
	stats, err := client.Stats(ctx)
	if err != nil {
		return false, err.Error()
	}
	if stats.Keys != twin.Len() {
		return false, fmt.Sprintf("server holds %d keys, twin %d", stats.Keys, twin.Len())
	}
	mismatch := ""
	twin.ForEach(func(key string, c sbitmap.Counter) bool {
		got, ok, err := client.Estimate(ctx, key)
		if err != nil || !ok {
			mismatch = fmt.Sprintf("%s: ok=%v err=%v", key, ok, err)
			return false
		}
		if want := c.Estimate(); got != want {
			mismatch = fmt.Sprintf("%s: server %v, twin %v", key, got, want)
			return false
		}
		return true
	})
	return mismatch == "", mismatch
}

// verify resolves the recovered server's state against the acked count
// N: it must equal the twin of N or N+1 frames (one in-doubt frame whose
// ack the crash swallowed). The resolved count becomes the next feed's
// starting point.
func verify(client *server.Client, spec sbitmap.Spec, ackedPath string) error {
	acked, err := readAcked(ackedPath)
	if err != nil {
		return err
	}
	ctx := context.Background()
	twin, err := twinOf(spec, acked)
	if err != nil {
		return err
	}
	if ok, _ := matches(ctx, client, twin); ok {
		fmt.Printf("torture verify: bit-identical to %d acked frames\n", acked)
		return writeAcked(ackedPath, acked)
	}
	// The in-doubt frame: logged and applied, ack lost in the crash.
	keys, items := frameAt(acked)
	twin.AddBatch64(keys, items)
	if ok, detail := matches(ctx, client, twin); !ok {
		return fmt.Errorf("recovered state matches neither %d nor %d acked frames: %s", acked, acked+1, detail)
	}
	fmt.Printf("torture verify: bit-identical to %d acked frames (+1 in-doubt, recovered)\n", acked)
	return writeAcked(ackedPath, acked+1)
}

func main() {
	var (
		mode    = flag.String("mode", "", "feed or verify")
		base    = flag.String("base", "http://127.0.0.1:8287", "sketchd base URL")
		specStr = flag.String("spec", "", "the server's spec (verify builds the twin from it)")
		acked   = flag.String("acked", "", "progress file: highest frame number the server acked")
		count   = flag.Int("count", 1_000_000, "feed: frames to attempt this round")
	)
	flag.Parse()
	if *acked == "" {
		fmt.Fprintln(os.Stderr, "torture: -acked is required")
		os.Exit(2)
	}
	client := server.NewClient(*base, server.WithRetry(0, time.Second))
	var err error
	switch *mode {
	case "feed":
		err = feed(client, *acked, *count)
	case "verify":
		var spec sbitmap.Spec
		if spec, err = sbitmap.ParseSpec(*specStr); err == nil {
			err = verify(client, spec, *acked)
		}
	default:
		err = fmt.Errorf("unknown -mode %q (want feed or verify)", *mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture %s: %v\n", *mode, err)
		os.Exit(1)
	}
}
