// Command clusterclient is the client half of the cluster smoke test
// (scripts/smoke_cluster.sh): it drives a running sketchd cluster
// through internal/cluster.Client from a separate process — partitioned
// ingest, scatter-gather verification against a local twin Store, and
// typed degraded-response assertions after a peer kill.
//
// The workload is a pure function of (-keys, -per-key, -spec seed), so
// separate invocations agree on what the cluster should contain: one
// run ingests, a later run re-verifies after a kill or restart.
//
//	clusterclient -peers $P1,$P2,$P3 -mode ingest
//	clusterclient -peers $P1,$P2,$P3 -mode verify
//	clusterclient -peers $P1,$P2,$P3 -mode degraded -dead $P2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	sbitmap "repro"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/xrand"
)

func main() {
	var (
		peersFlag = flag.String("peers", "", "comma-separated peer base URLs (required)")
		specStr   = flag.String("spec", "sbitmap:n=1e4,eps=0.1,seed=7", "cluster spec (must match the nodes')")
		mode      = flag.String("mode", "ingest", "ingest | verify | degraded")
		nKeys     = flag.Int("keys", 600, "workload keys")
		perKey    = flag.Int("per-key", 20, "records per key")
		dead      = flag.String("dead", "", "with -mode degraded: the peer expected unreachable")
	)
	flag.Parse()
	if err := run(*peersFlag, *specStr, *mode, *nKeys, *perKey, *dead); err != nil {
		fmt.Fprintf(os.Stderr, "clusterclient: %v\n", err)
		os.Exit(1)
	}
}

// workload regenerates the deterministic record set every mode agrees on.
func workload(nKeys, perKey int) (keys []string, items []uint64) {
	for k := 0; k < nKeys; k++ {
		name := fmt.Sprintf("key-%04d", k)
		spread := 1 + k%17
		for i := 0; i < perKey; i++ {
			keys = append(keys, name)
			items = append(items, xrand.Mix64(uint64(k)<<16|uint64(i%spread)))
		}
	}
	return keys, items
}

func run(peersFlag, specStr, mode string, nKeys, perKey int, dead string) error {
	peers := strings.Split(peersFlag, ",")
	if peersFlag == "" || len(peers) < 2 {
		return fmt.Errorf("-peers needs at least two comma-separated URLs")
	}
	spec, err := sbitmap.ParseSpec(specStr)
	if err != nil {
		return err
	}
	cc, err := cluster.New(peers, cluster.WithRetry(2, 100*time.Millisecond))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return err
	}
	keys, items := workload(nKeys, perKey)
	twin.AddBatch64(keys, items)

	switch mode {
	case "ingest":
		const batch = 512
		for i := 0; i < len(keys); i += batch {
			end := min(i+batch, len(keys))
			res, err := cc.AddFrame(ctx, &server.Frame{Keys: keys[i:end], Items64: items[i:end]})
			if err != nil {
				return err
			}
			if res.Partial || res.Records != end-i {
				return fmt.Errorf("ingest batch degraded or short: %+v", res)
			}
		}
		fmt.Printf("clusterclient: ingested %d records over %d keys across %d peers\n",
			len(keys), nKeys, len(peers))
		fallthrough

	case "verify":
		// Every key, over the wire, bit-identical to the local twin.
		checked := 0
		var verr error
		twin.ForEach(func(key string, c sbitmap.Counter) bool {
			got, ok, qerr := cc.Estimate(ctx, key)
			if qerr != nil {
				verr = fmt.Errorf("estimate %q: %w", key, qerr)
				return false
			}
			if !ok || got != c.Estimate() {
				verr = fmt.Errorf("key %q: cluster %v (ok=%v), twin %v", key, got, ok, c.Estimate())
				return false
			}
			checked++
			return true
		})
		if verr != nil {
			return verr
		}
		if checked != twin.Len() {
			return fmt.Errorf("verified %d of %d keys", checked, twin.Len())
		}
		stats, err := cc.Stats(ctx)
		if err != nil {
			return err
		}
		if stats.Partial || stats.Keys != twin.Len() {
			return fmt.Errorf("stats: keys=%d partial=%v, twin %d", stats.Keys, stats.Partial, twin.Len())
		}
		tk, err := cc.TopK(ctx, 5)
		if err != nil {
			return err
		}
		if tk.Partial || len(tk.Top) != 5 {
			return fmt.Errorf("topk: %d entries partial=%v", len(tk.Top), tk.Partial)
		}
		want := twin.TopK(5)
		for i := range want {
			if tk.Top[i].Key != want[i].Key || tk.Top[i].Estimate != want[i].Estimate {
				return fmt.Errorf("topk[%d]: cluster (%s,%v), twin (%s,%v)",
					i, tk.Top[i].Key, tk.Top[i].Estimate, want[i].Key, want[i].Estimate)
			}
		}
		fmt.Printf("clusterclient: %d keys verified bit-identical; stats and top-5 match the twin\n", checked)

	case "degraded":
		if dead == "" {
			return fmt.Errorf("-mode degraded needs -dead")
		}
		tk, err := cc.TopK(ctx, 5)
		if err != nil {
			return fmt.Errorf("topk with a dead peer must degrade, got error: %w", err)
		}
		if !tk.Partial {
			return fmt.Errorf("topk with dead peer %s was not partial", dead)
		}
		if len(tk.Unreachable) != 1 || tk.Unreachable[0] != dead {
			return fmt.Errorf("unreachable=%v, want exactly [%s]", tk.Unreachable, dead)
		}
		stats, err := cc.Stats(ctx)
		if err != nil {
			return err
		}
		if !stats.Partial || len(stats.Peers) != len(peers)-1 {
			return fmt.Errorf("stats: partial=%v reachable=%d", stats.Partial, len(stats.Peers))
		}
		// Keys owned by survivors still answer, bit-identically.
		live := 0
		var verr error
		twin.ForEach(func(key string, c sbitmap.Counter) bool {
			if cc.Owner(key) == dead {
				return true
			}
			got, ok, qerr := cc.Estimate(ctx, key)
			if qerr != nil || !ok || got != c.Estimate() {
				verr = fmt.Errorf("live key %q: got %v ok=%v err=%v, twin %v", key, got, ok, qerr, c.Estimate())
				return false
			}
			live++
			return true
		})
		if verr != nil {
			return verr
		}
		if live == 0 {
			return fmt.Errorf("no keys owned by surviving peers")
		}
		fmt.Printf("clusterclient: degraded response confirmed (unreachable=%v); %d surviving keys still bit-identical\n",
			tk.Unreachable, live)

	default:
		return fmt.Errorf("unknown -mode %q", mode)
	}
	return nil
}
