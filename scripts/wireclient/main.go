// Command wireclient is the client half of the wire-ingest smoke test
// (scripts/smoke_wire.sh): it pushes pipelined SBF1 frames over the raw
// TCP listener (internal/wire), then verifies the served estimates
// bit-identical against a local twin Store fed the same records — proving
// the zero-copy wire path end to end from a separate process. With
// -garbage it instead sends a corrupt frame and asserts the server
// rejects it (error ack + connection close) without falling over.
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	var (
		tcp     = flag.String("tcp", "127.0.0.1:18292", "sketchd wire listener (-tcp-addr)")
		base    = flag.String("base", "http://127.0.0.1:18291", "service base URL (queries)")
		spec    = flag.String("spec", "", "server spec; when set, verify estimates against a local twin store")
		nkeys   = flag.Int("nkeys", 64, "distinct keys to ingest")
		spread  = flag.Int("spread", 100, "distinct uint64 items per key")
		batch   = flag.Int("batch", 512, "records per frame")
		prefix  = flag.String("prefix", "wire", "key name prefix")
		garbage = flag.Bool("garbage", false, "send a corrupt frame and expect rejection instead of ingesting")
	)
	flag.Parse()
	var err error
	if *garbage {
		err = sendGarbage(*tcp)
	} else {
		err = push(*tcp, *base, *spec, *prefix, *nkeys, *spread, *batch)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wireclient: %v\n", err)
		os.Exit(1)
	}
}

// push streams the workload over TCP (both frame types), then compares
// every key's served estimate with a local twin when -spec is given.
func push(tcp, base, specStr, prefix string, nkeys, spread, batch int) error {
	keys := make([]string, 0, nkeys*spread)
	items := make([]uint64, 0, nkeys*spread)
	for k := 0; k < nkeys; k++ {
		name := fmt.Sprintf("%s-%05d", prefix, k)
		for i := 0; i < spread; i++ {
			keys = append(keys, name)
			items = append(items, (uint64(k)<<20|uint64(i))*0x9e3779b97f4a7c15)
		}
	}

	wc := wire.NewClient(tcp)
	defer wc.Close()
	for at := 0; at < len(keys); at += batch {
		end := min(at+batch, len(keys))
		if err := wc.SendFrame(&server.Frame{Keys: keys[at:end], Items64: items[at:end]}); err != nil {
			return err
		}
	}
	changed, err := wc.Drain()
	if err != nil {
		return err
	}
	// A string frame exercises the second item type over the same conn.
	strKeys := []string{keys[0], keys[0], keys[len(keys)-1]}
	strItems := []string{"smoke-a", "smoke-b", "smoke-a"}
	strChanged, err := wc.AddFrame(&server.Frame{Keys: strKeys, ItemsString: strItems})
	if err != nil {
		return err
	}
	fmt.Printf("wireclient: %d records over tcp (%d changed), string frame %d changed\n",
		len(keys), changed, strChanged)

	if specStr == "" {
		return nil
	}
	sp, err := sbitmap.ParseSpec(specStr)
	if err != nil {
		return err
	}
	twin, err := sbitmap.NewStore[string](sp)
	if err != nil {
		return err
	}
	for at := 0; at < len(keys); at += batch {
		end := min(at+batch, len(keys))
		twin.AddBatch64(keys[at:end], items[at:end])
	}
	twin.AddBatchString(strKeys, strItems)

	client := server.NewClient(base)
	ctx := context.Background()
	verified := 0
	for k := 0; k < nkeys; k++ {
		name := fmt.Sprintf("%s-%05d", prefix, k)
		want, ok := twin.Estimate(name)
		if !ok {
			return fmt.Errorf("twin lost key %s", name)
		}
		got, ok, err := client.Estimate(ctx, name)
		if err != nil {
			return err
		}
		if !ok || got != want {
			return fmt.Errorf("key %s: served %v (ok=%v), twin %v — wire ingest not bit-identical", name, got, ok, want)
		}
		verified++
	}
	fmt.Printf("wireclient: %d keys verified bit-identical to local twin\n", verified)
	return nil
}

// sendGarbage writes a well-formed length prefix followed by bytes that
// are not an SBF1 frame, and asserts the server answers with the error
// ack and closes only this connection.
func sendGarbage(tcp string) error {
	c, err := net.DialTimeout("tcp", tcp, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	body := []byte("this is not an SBF1 frame")
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := c.Write(append(hdr[:], body...)); err != nil {
		return err
	}
	var ack [8]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		return fmt.Errorf("reading ack: %w", err)
	}
	if got := binary.LittleEndian.Uint64(ack[:]); got != wire.AckError {
		return fmt.Errorf("garbage frame acked with %d, want the error ack", got)
	}
	// The server must close its end after the error ack.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(ack[:1]); err != io.EOF {
		return fmt.Errorf("connection still open after bad frame (read err %v, want EOF)", err)
	}
	fmt.Println("wireclient: corrupt frame rejected with error ack, connection closed")
	return nil
}
