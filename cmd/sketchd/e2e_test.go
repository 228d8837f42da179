//go:build linux

package main

// End-to-end tests: real sketchd processes, built once per run, driven
// through the in-repo clients and checked against a twin Store. An
// S-bitmap's state depends on its whole fill history, so one lost or
// doubled frame shows up as an estimate that differs from the twin's.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	sbitmap "repro"
	"repro/internal/cluster"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// binDir holds the sketchd binary the end-to-end tests build.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sketchd-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// sketchdBin builds this package's binary on first use. Under -race the
// children are not race-built; only the test's own goroutines are.
var sketchdBin = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "sketchd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// syncBuffer is a bytes.Buffer that one goroutine writes while others read.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// proc is one sketchd child process.
type proc struct {
	ckpt string   // its -checkpoint directory
	args []string // the rest of its flags, for a restart
	url  string   // HTTP base URL, from its log
	tcp  string   // wire listener address, from its log, with -tcp-addr

	cmd  *exec.Cmd
	log  syncBuffer
	done chan struct{} // closed once the process is reaped
	err  error         // Wait's result, set before done closes
}

// startSketchd runs sketchd with -checkpoint ckpt and args, on port 0
// unless args name an -addr, and returns once it serves /healthz. The
// child dies with the test binary and is killed when the test ends.
func startSketchd(t *testing.T, ckpt string, args ...string) *proc {
	t.Helper()
	bin, err := sketchdBin()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{ckpt: ckpt, args: args, done: make(chan struct{})}
	// A later -addr in args overrides the first: the flag package keeps
	// the last value.
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt}, args...)...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	ready := make(chan struct{})
	go p.readLog(stderr, slices.Contains(args, "-tcp-addr"), ready)
	select {
	case <-ready:
	case <-p.done:
		t.Fatalf("sketchd exited before listening (%v):\n%s", p.err, p.log.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("sketchd not listening after 30s:\n%s", p.log.String())
	}
	if err := server.NewClient(p.url).Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v\n%s", err, p.log.String())
	}
	return p
}

// readLog keeps the child's log, sets its listen addresses and then
// closes ready, and reaps the child at EOF.
func (p *proc) readLog(r io.Reader, wantTCP bool, ready chan struct{}) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(&p.log, line)
		if ready == nil {
			continue
		}
		if _, rest, ok := strings.Cut(line, "serving spec "); ok {
			_, addr, _ := strings.Cut(rest, " on http://")
			p.url = "http://" + addr
		}
		if _, addr, ok := strings.Cut(line, "wire ingest on tcp://"); ok {
			p.tcp = addr
		}
		if p.url != "" && (!wantTCP || p.tcp != "") {
			close(ready)
			ready = nil
		}
	}
	io.Copy(io.Discard, r) // past an over-long line, keep draining
	p.err = p.cmd.Wait()
	close(p.done)
}

// kill sends SIGKILL and waits until the child is reaped.
func (p *proc) kill() {
	p.cmd.Process.Kill() // fails harmlessly once the child has exited
	<-p.done
}

// term sends SIGTERM and requires exit status 0 and a non-empty
// checkpoint manifest. It returns how long the child took to exit.
func (p *proc) term(t *testing.T) time.Duration {
	t.Helper()
	start := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("sketchd still running 30s after SIGTERM:\n%s", p.log.String())
	}
	took := time.Since(start)
	if p.err != nil {
		t.Fatalf("sketchd exited with %v after SIGTERM:\n%s", p.err, p.log.String())
	}
	if fi, err := os.Stat(filepath.Join(p.ckpt, "MANIFEST.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("no checkpoint manifest after SIGTERM (%v)", err)
	}
	return took
}

// restart starts a new child with p's flags.
func (p *proc) restart(t *testing.T) *proc {
	t.Helper()
	return startSketchd(t, p.ckpt, p.args...)
}

// rawHTTP sends one request the typed client has no call for and
// returns its status and body.
func rawHTTP(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// estimates reads keys' estimates, failing on an unknown key.
func estimates(t *testing.T, c *server.Client, keys ...string) []float64 {
	t.Helper()
	var out []float64
	for _, k := range keys {
		e, ok, err := c.Estimate(context.Background(), k)
		if err != nil || !ok {
			t.Fatalf("estimate %q: ok %v, err %v", k, ok, err)
		}
		out = append(out, e)
	}
	return out
}

func newTwin(t *testing.T, spec string) *sbitmap.Store[string] {
	t.Helper()
	sp, err := sbitmap.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sbitmap.NewStore[string](sp)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// checkTwin compares est's answer for every key of twin that keep
// accepts (nil accepts all) with the twin's own estimate. It returns how
// many keys it compared, or the first difference.
func checkTwin(est func(context.Context, string) (float64, bool, error), twin *sbitmap.Store[string], keep func(string) bool) (int, error) {
	n := 0
	var diff error
	twin.ForEach(func(key string, c sbitmap.Counter) bool {
		if keep != nil && !keep(key) {
			return true
		}
		got, ok, err := est(context.Background(), key)
		if want := c.Estimate(); err != nil || !ok || got != want {
			diff = fmt.Errorf("key %q: served %v (ok %v, err %v), twin %v", key, got, ok, err, want)
			return false
		}
		n++
		return true
	})
	return n, diff
}

// matchTwin requires the server to hold exactly twin's keys, each with
// the twin's estimate.
func matchTwin(c *server.Client, twin *sbitmap.Store[string]) error {
	st, err := c.Stats(context.Background())
	if err != nil {
		return err
	}
	if st.Keys != twin.Len() {
		return fmt.Errorf("server holds %d keys, twin %d", st.Keys, twin.Len())
	}
	_, err = checkTwin(c.Estimate, twin, nil)
	return err
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestE2ERestart: both ingest formats, queries, a malformed body, and a
// SIGTERM checkpoint that a restart restores unchanged, on a plain and
// on a windowed store.
func TestE2ERestart(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	dir := t.TempDir()
	p := startSketchd(t, filepath.Join(dir, "ckpt"), "-spec", "hll:mbits=4096,seed=7")
	c := server.NewClient(p.url)

	var keys, items []string
	for i := 1; i <= 500; i++ {
		keys, items = append(keys, "alice"), append(items, fmt.Sprintf("url-%d", i))
	}
	if res, err := c.AddNDJSON(ctx, keys, items); err != nil || res.Records != 500 {
		t.Fatalf("NDJSON ingest: %+v, %v", res, err)
	}
	bob := &server.Frame{}
	for i := 0; i < 250; i++ {
		bob.Keys, bob.Items64 = append(bob.Keys, "bob"), append(bob.Items64, uint64(i)*0x9e3779b97f4a7c15)
	}
	if res, err := c.AddFrame(ctx, bob); err != nil || res.Records != 250 {
		t.Fatalf("frame ingest: %+v, %v", res, err)
	}
	if top, err := c.TopK(ctx, 2); err != nil || len(top) != 2 || top[0].Key != "alice" || top[1].Key != "bob" {
		t.Fatalf("topk: %+v, %v", top, err)
	}
	if st, err := c.Stats(ctx); err != nil || st.Keys != 2 {
		t.Fatalf("stats: %d keys, %v", st.Keys, err)
	}
	if code, body := rawHTTP(t, http.MethodPost, p.url+"/v1/add", "not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed NDJSON: %d %s", code, body)
	}
	before := estimates(t, c, "alice", "bob")
	p.term(t)
	p = p.restart(t)
	c = server.NewClient(p.url)
	if after := estimates(t, c, "alice", "bob"); !slices.Equal(before, after) {
		t.Fatalf("estimates moved across restart: %v, then %v", before, after)
	}
	if res, err := c.AddNDJSON(ctx, []string{"alice"}, []string{"brand-new-url"}); err != nil || res.Records != 1 {
		t.Fatalf("ingest after restart: %+v, %v", res, err)
	}
	p.term(t)

	p = startSketchd(t, filepath.Join(dir, "wckpt"), "-spec", "hll:mbits=4096,seed=7", "-window", "1m", "-ring", "5")
	c = server.NewClient(p.url)
	var body strings.Builder
	for w := int64(100); w <= 102; w++ { // the middle of sub-windows 100-102
		for i := 1; i <= 100; i++ {
			fmt.Fprintf(&body, `{"key":"carol","item":"w%d-url-%d","ts":%d}`+"\n", w, i, w*60e9+30e9)
		}
	}
	if code, resp := rawHTTP(t, http.MethodPost, p.url+"/v1/add", body.String()); code != http.StatusOK {
		t.Fatalf("timestamped NDJSON: %d %s", code, resp)
	}
	win, ok, err := c.EstimateWindow(ctx, "carol", 3*time.Minute)
	if err != nil || !ok || win.Windows != 3 {
		t.Fatalf("window=3m: %+v, ok %v, %v", win, ok, err)
	}
	if st, err := c.Stats(ctx); err != nil || st.Window == nil || st.Window.Width != "1m0s" {
		t.Fatalf("stats window block: %+v, %v", st.Window, err)
	}
	if code, resp := rawHTTP(t, http.MethodGet, p.url+"/v1/estimate?key=carol&window=soon", ""); code != http.StatusBadRequest || !strings.Contains(resp, server.CodeBadWindow) {
		t.Fatalf("window=soon: %d %s", code, resp)
	}
	p.term(t)
	p = p.restart(t)
	if again, _, err := server.NewClient(p.url).EstimateWindow(ctx, "carol", 3*time.Minute); err != nil || again != win {
		t.Fatalf("window answer moved across restart: %+v, then %+v (%v)", win, again, err)
	}
}

// TestE2ECluster: three processes on one spec and peer list agree with a
// twin Store, answer partially while one peer is down, and recover when
// it restarts on its address.
func TestE2ECluster(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	const spec = "sbitmap:n=1e4,eps=0.1,seed=7"
	// Every node needs the peer list before it starts, so the ports are
	// reserved up front instead of bound as port 0.
	var lns []net.Listener
	var peers []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns, peers = append(lns, ln), append(peers, "http://"+ln.Addr().String())
	}
	dir := t.TempDir()
	var nodes []*proc
	for i, ln := range lns {
		ln.Close()
		nodes = append(nodes, startSketchd(t, filepath.Join(dir, fmt.Sprint("ckpt", i)),
			"-addr", ln.Addr().String(), "-spec", spec, "-peers", strings.Join(peers, ",")))
	}
	if info, err := server.NewClient(peers[1]).Cluster(ctx); err != nil || !slices.Equal(info.Peers, peers) {
		t.Fatalf("node 2's /v1/cluster: %+v, %v", info, err)
	}

	cc, err := cluster.New(peers, cluster.WithRetry(2, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var keys []string
	var items []uint64
	for k := 0; k < 600; k++ {
		spread := 1 + k%17
		for i := 0; i < 20; i++ {
			keys = append(keys, fmt.Sprintf("key-%04d", k))
			items = append(items, xrand.Mix64(uint64(k)<<16|uint64(i%spread)))
		}
	}
	twin := newTwin(t, spec)
	twin.AddBatch64(keys, items)
	for at := 0; at < len(keys); at += 512 {
		end := min(at+512, len(keys))
		res, err := cc.AddFrame(ctx, &server.Frame{Keys: keys[at:end], Items64: items[at:end]})
		if err != nil || res.Partial || res.Records != end-at {
			t.Fatalf("frame at %d: %+v, %v", at, res, err)
		}
	}
	verify := func() {
		t.Helper()
		if n, err := checkTwin(cc.Estimate, twin, nil); err != nil || n != twin.Len() {
			t.Fatalf("%d of %d keys match the twin: %v", n, twin.Len(), err)
		}
		if st, err := cc.Stats(ctx); err != nil || st.Partial || st.Keys != twin.Len() {
			t.Fatalf("stats: %d keys, partial %v, %v; twin %d", st.Keys, st.Partial, err, twin.Len())
		}
		tk, err := cc.TopK(ctx, 5)
		if err != nil || tk.Partial || len(tk.Top) != 5 {
			t.Fatalf("topk: %+v, %v", tk, err)
		}
		for i, want := range twin.TopK(5) {
			if got := tk.Top[i]; got.Key != want.Key || got.Estimate != want.Estimate {
				t.Fatalf("topk[%d]: cluster %+v, twin %+v", i, got, want)
			}
		}
	}
	verify()

	nodes[1].term(t)
	dead := peers[1]
	if tk, err := cc.TopK(ctx, 5); err != nil || !tk.Partial || !slices.Equal(tk.Unreachable, []string{dead}) {
		t.Fatalf("topk with node 2 down: %+v, %v", tk, err)
	}
	if st, err := cc.Stats(ctx); err != nil || !st.Partial || len(st.Peers) != 2 {
		t.Fatalf("stats with node 2 down: partial %v, %d peers, %v", st.Partial, len(st.Peers), err)
	}
	live, err := checkTwin(cc.Estimate, twin, func(k string) bool { return cc.Owner(k) != dead })
	if err != nil || live == 0 {
		t.Fatalf("%d surviving keys match the twin: %v", live, err)
	}

	nodes[1] = nodes[1].restart(t)
	verify()
}

// TestE2EWire: pipelined frames over the TCP listener match a twin, a
// frame that is not SBF1 ends only its own connection, and a restart
// keeps the estimates and takes wire ingest again.
func TestE2EWire(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	const spec = "sbitmap:n=1e4,eps=0.1,seed=7"
	p := startSketchd(t, filepath.Join(t.TempDir(), "ckpt"), "-spec", spec, "-tcp-addr", "127.0.0.1:0")
	twin := newTwin(t, spec)
	// push pipelines nkeys × spread records in 512-record frames and
	// feeds the twin the same frames; extra goes after them on the same
	// connection.
	push := func(prefix string, nkeys, spread int, extra *server.Frame) {
		t.Helper()
		var keys []string
		var items []uint64
		for k := 0; k < nkeys; k++ {
			for i := 0; i < spread; i++ {
				keys = append(keys, fmt.Sprintf("%s-%05d", prefix, k))
				items = append(items, (uint64(k)<<20|uint64(i))*0x9e3779b97f4a7c15)
			}
		}
		wc := wire.NewClient(p.tcp)
		defer wc.Close()
		for at := 0; at < len(keys); at += 512 {
			end := min(at+512, len(keys))
			if err := wc.SendFrame(&server.Frame{Keys: keys[at:end], Items64: items[at:end]}); err != nil {
				t.Fatal(err)
			}
			twin.AddBatch64(keys[at:end], items[at:end])
		}
		if _, err := wc.Drain(); err != nil {
			t.Fatal(err)
		}
		if extra != nil {
			if _, err := wc.AddFrame(extra); err != nil {
				t.Fatal(err)
			}
			twin.AddBatchString(extra.Keys, extra.ItemsString)
		}
		if n, err := checkTwin(server.NewClient(p.url).Estimate, twin, nil); err != nil || n != twin.Len() {
			t.Fatalf("%d of %d keys match the twin: %v", n, twin.Len(), err)
		}
	}
	push("wire", 64, 100, &server.Frame{
		Keys:        []string{"wire-00000", "wire-00000", "wire-00063"},
		ItemsString: []string{"smoke-a", "smoke-b", "smoke-a"},
	})

	conn, err := net.Dial("tcp", p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := []byte("this is not an SBF1 frame")
	if _, err := conn.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(junk))), junk...)); err != nil {
		t.Fatal(err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || binary.LittleEndian.Uint64(ack[:]) != wire.AckError {
		t.Fatalf("junk frame acked %x (%v), want the error ack", ack, err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(ack[:1]); err != io.EOF {
		t.Fatalf("connection still open after the error ack: %v", err)
	}
	c := server.NewClient(p.url)
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("server down after a junk frame: %v", err)
	}
	if st, err := c.Stats(ctx); err != nil || st.Keys != 64 {
		t.Fatalf("stats: %d keys, %v", st.Keys, err)
	}

	before := estimates(t, c, "wire-00000", "wire-00042")
	p.term(t)
	p = p.restart(t)
	c = server.NewClient(p.url)
	if after := estimates(t, c, "wire-00000", "wire-00042"); !slices.Equal(before, after) {
		t.Fatalf("estimates moved across restart: %v, then %v", before, after)
	}
	push("post", 4, 10, nil)
	if st, err := c.Stats(ctx); err != nil || st.Keys != 68 {
		t.Fatalf("stats after restart: %d keys, %v", st.Keys, err)
	}
}

// tortureFrame is frame i of the crash-torture feed: four records over
// 23 keys with items unique to the frame, so every frame changes some
// key, and a lost or doubled frame moves its estimate.
func tortureFrame(i int) *server.Frame {
	f := &server.Frame{}
	for j := 0; j < 4; j++ {
		f.Keys = append(f.Keys, fmt.Sprintf("flow-%02d", (i*7+j*3)%23))
		f.Items64 = append(f.Items64, uint64(i)<<16|uint64(j))
	}
	return f
}

// TestE2ECrashTorture interrupts a synchronous feeder's server again and
// again. After each restart the server must equal a twin fed exactly the
// N acked frames, or N+1: the one in flight may be in the store with its
// ack lost. Every row checkpoints every 500 ms; the kill -9 row recovers
// the rest from a WAL, the SIGTERM rows from the final checkpoint, which
// must cover every frame the server fully received.
func TestE2ECrashTorture(t *testing.T) {
	t.Parallel()
	for _, row := range []struct {
		name   string
		sig    syscall.Signal
		wire   bool
		cycles int
	}{
		{"kill9-wal-http", syscall.SIGKILL, false, 5},
		{"sigterm-http", syscall.SIGTERM, false, 3},
		{"sigterm-wire", syscall.SIGTERM, true, 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			const spec = "sbitmap:n=1e4,eps=0.1,seed=21"
			dir := t.TempDir()
			args := []string{"-spec", spec, "-checkpoint-interval", "500ms"}
			if row.sig == syscall.SIGKILL {
				args = append(args, "-wal-dir", filepath.Join(dir, "wal"), "-fsync", "always")
			}
			if row.wire {
				args = append(args, "-tcp-addr", "127.0.0.1:0")
			}
			p := startSketchd(t, filepath.Join(dir, "ckpt"), args...)
			twin := newTwin(t, spec)
			held := 0 // frames the server holds; the twin has them all
			// settle feeds the twin frames [held, acked) and checks the
			// restarted server against it, then against one frame more.
			settle := func(acked int) {
				t.Helper()
				for ; held < acked; held++ {
					f := tortureFrame(held)
					twin.AddBatch64(f.Keys, f.Items64)
				}
				c := server.NewClient(p.url)
				err := matchTwin(c, twin)
				if err == nil {
					return
				}
				f := tortureFrame(held)
				twin.AddBatch64(f.Keys, f.Items64)
				if err2 := matchTwin(c, twin); err2 != nil {
					t.Fatalf("state matches neither %d nor %d acked frames: %v; %v", held, held+1, err, err2)
				}
				held++
			}
			for cycle := 0; cycle < row.cycles; cycle++ {
				acked := make(chan int, 1)
				go func(p *proc, from int) {
					c := server.NewClient(p.url)
					send := func(f *server.Frame) error {
						_, err := c.AddFrame(context.Background(), f)
						return err
					}
					if row.wire {
						wc := wire.NewClient(p.tcp)
						defer wc.Close()
						send = func(f *server.Frame) error { _, err := wc.AddFrame(f); return err }
					}
					n := from
					for send(tortureFrame(n)) == nil {
						n++
					}
					acked <- n
				}(p, held)
				time.Sleep(time.Duration(300+100*(cycle%5)) * time.Millisecond)
				if row.sig == syscall.SIGKILL {
					p.kill()
				} else {
					p.term(t)
				}
				n := <-acked
				p = p.restart(t)
				settle(n)
				t.Logf("cycle %d: %d frames acked, %d held", cycle, n, held)
			}
			if held == 0 {
				t.Fatal("no frame was acked")
			}
			p.term(t)
			p = p.restart(t)
			if err := matchTwin(server.NewClient(p.url), twin); err != nil {
				t.Fatalf("after a clean restart: %v", err)
			}
		})
	}
}

// TestE2EAlerts: a prefix rule fires on a scan trace, the alert reaches
// the history and the SSE stream, SIGTERM ends the open stream promptly,
// and rules and alert history come back unchanged after a restart.
func TestE2EAlerts(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	p := startSketchd(t, filepath.Join(t.TempDir(), "ckpt"), "-spec", "sbitmap:n=1e4,eps=0.03,seed=7", "-rule-interval", "100ms")
	c := server.NewClient(p.url)
	if got, err := c.PutRule(ctx, rules.Spec{ID: "superspreader", Type: "prefix", Threshold: 500}); err != nil || got.ID != "superspreader" {
		t.Fatalf("install: %+v, %v", got, err)
	}
	for _, probe := range []struct {
		code string
		call func() error
	}{
		{server.CodeBadRule, func() error {
			_, err := c.PutRule(ctx, rules.Spec{ID: "x", Type: "prefix", Threshold: -1})
			return err
		}},
		{server.CodeWindowNotConf, func() error {
			_, err := c.PutRule(ctx, rules.Spec{ID: "x", Type: "prefix", Threshold: 10, Window: "5m"})
			return err
		}},
		{server.CodeUnknownRule, func() error { _, err := c.Rule(ctx, "nope"); return err }},
	} {
		var apiErr *server.APIError
		if err := probe.call(); !errors.As(err, &apiErr) || apiErr.Code != probe.code {
			t.Errorf("want %s, got %v", probe.code, err)
		}
	}

	// The stream stays open through the SIGTERM below. Its subscription
	// is registered once the response headers arrive.
	resp, err := http.Get(p.url + "/v1/alerts/stream")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("alert stream: %v, %v", resp, err)
	}
	defer resp.Body.Close()
	var sse syncBuffer
	sseDone := make(chan struct{})
	go func() {
		io.Copy(&sse, resp.Body)
		close(sseDone)
	}()

	// flowgen -trace scan -scanners 5 -scan-rate 1000 -seed 7
	tr := stream.NewScanTrace(stream.ScanTraceConfig{
		BackgroundKeys: 5000, BackgroundMax: 50,
		Borderline: 50, BorderlineLo: 250, BorderlineHi: 750,
		Scanners: 5, ScannerLo: 1000, ScannerHi: 2000,
		Dup: 1.5, Seed: 7,
	})
	var keys, items []string
	stream.ForEachRecord(tr, func(k, i uint64) {
		keys, items = append(keys, stream.KeyString(k)), append(items, stream.KeyString(i))
	})
	if _, err := c.AddNDJSON(ctx, keys, items); err != nil {
		t.Fatal(err)
	}
	alerts := func() []rules.Alert {
		t.Helper()
		as, err := server.NewClient(p.url).Alerts(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	waitFor(t, "a firing alert", func() bool {
		return slices.ContainsFunc(alerts(), func(a rules.Alert) bool { return a.State == rules.StateFiring })
	})
	sseAlert := regexp.MustCompile(`(?m)^event: alert\ndata: .*"state":"firing"`)
	waitFor(t, "a firing alert on the stream", func() bool { return sseAlert.MatchString(sse.String()) })
	if st, err := c.Stats(ctx); err != nil || st.Rules == nil {
		t.Fatalf("stats rules block: %+v, %v", st.Rules, err)
	}
	// A rule can fire more keys on a later tick than on the first, so
	// wait until two reads more than two ticks apart agree.
	var before []rules.Alert
	waitFor(t, "the alert history to settle", func() bool {
		prev := before
		time.Sleep(300 * time.Millisecond)
		before = alerts()
		return prev != nil && reflect.DeepEqual(prev, before)
	})

	took := p.term(t)
	if took > 5*time.Second || strings.Contains(p.log.String(), "shutdown:") {
		t.Fatalf("SIGTERM with an alert stream open took %v:\n%s", took, p.log.String())
	}
	t.Logf("SIGTERM with an alert stream open: exit after %v", took)
	<-sseDone
	p = p.restart(t)
	rs, err := server.NewClient(p.url).Rules(ctx)
	if err != nil || len(rs) != 1 || rs[0].ID != "superspreader" {
		t.Fatalf("rules after restart: %+v, %v", rs, err)
	}
	if after := alerts(); !reflect.DeepEqual(before, after) {
		t.Fatalf("alert history changed across restart:\n%+v\n%+v", before, after)
	}
	time.Sleep(500 * time.Millisecond) // five rule ticks
	if later := alerts(); !reflect.DeepEqual(before, later) {
		t.Fatalf("restored firing keys fired again:\n%+v\n%+v", before, later)
	}
}
