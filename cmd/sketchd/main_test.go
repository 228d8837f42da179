package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-spec", "hll:mbits=4096,seed=7", "-addr", "127.0.0.1:0",
		"-checkpoint", "/tmp/ck", "-checkpoint-interval", "5s",
		"-wal-dir", "/tmp/wal", "-fsync", "always", "-fsync-interval", "50ms",
		"-wal-segment-bytes", "4096", "-max-durability-lag", "5s",
		"-maxkeys", "100", "-stripes", "8", "-max-body", "1024",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Spec.String() != "hll:mbits=4096,seed=7" {
		t.Errorf("spec = %s", cfg.server.Spec)
	}
	if cfg.addr != "127.0.0.1:0" || cfg.server.CheckpointDir != "/tmp/ck" ||
		cfg.interval.Seconds() != 5 || cfg.server.MaxKeys != 100 ||
		cfg.server.Stripes != 8 || cfg.server.MaxBodyBytes != 1024 {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.server.WALDir != "/tmp/wal" || cfg.server.FsyncPolicy != wal.FsyncAlways ||
		cfg.server.FsyncInterval != 50*time.Millisecond ||
		cfg.server.WALSegmentBytes != 4096 || cfg.server.MaxDurabilityLag != 5*time.Second {
		t.Errorf("durability config = %+v", cfg.server)
	}
	if cfg.tcpAddr != "" || cfg.pprofAddr != "" {
		t.Errorf("tcp/pprof listeners default on: %+v", cfg)
	}

	cfg, err = parseFlags([]string{
		"-tcp-addr", "127.0.0.1:9988", "-pprof-addr", "127.0.0.1:6060",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.tcpAddr != "127.0.0.1:9988" || cfg.pprofAddr != "127.0.0.1:6060" {
		t.Errorf("config = %+v", cfg)
	}
}

func TestParseFlagsWindow(t *testing.T) {
	// -window/-ring merge into the spec as the windowed(...) modifier.
	cfg, err := parseFlags([]string{
		"-spec", "hll:mbits=4096,seed=7", "-window", "1m", "-ring", "10",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.server.Spec.String(); got != "hll:mbits=4096,seed=7/windowed(width=1m0s,ring=10)" {
		t.Errorf("spec = %s", got)
	}
	// -ring omitted: the library default is filled in.
	cfg, err = parseFlags([]string{"-spec", "hll:mbits=4096", "-window", "30s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Spec.Ring == 0 || !cfg.server.Spec.Windowed() || cfg.server.Spec.Window != 30*time.Second {
		t.Errorf("spec = %+v", cfg.server.Spec)
	}
	// The modifier may equally live in -spec itself, flags untouched.
	cfg, err = parseFlags([]string{"-spec", "hll:mbits=4096/windowed(width=2m,ring=3)"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Spec.Window != 2*time.Minute || cfg.server.Spec.Ring != 3 {
		t.Errorf("spec = %+v", cfg.server.Spec)
	}
	// And -ring may size a modifier that set only the width.
	cfg, err = parseFlags([]string{"-spec", "hll:mbits=4096/windowed(width=2m)", "-ring", "7"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Spec.Window != 2*time.Minute || cfg.server.Spec.Ring != 7 {
		t.Errorf("spec = %+v", cfg.server.Spec)
	}
}

func TestParseFlagsCluster(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-spec", "hll:mbits=4096,seed=7", "-role", "edge",
		"-peers", "http://n1:8287, http://n2:8287,", // spaces and a trailing comma must not matter
		"-aggregator", "http://agg:8287", "-push-interval", "15s",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := cfg.server.Cluster
	if cl.Role != server.RoleEdge || cl.Aggregator != "http://agg:8287" ||
		len(cl.Peers) != 2 || cl.Peers[0] != "http://n1:8287" || cl.Peers[1] != "http://n2:8287" ||
		cl.PushIntervalSeconds != 15 || cfg.pushInterval.Seconds() != 15 {
		t.Errorf("cluster config = %+v (pushInterval %v)", cl, cfg.pushInterval)
	}

	// Aggregator role: peers allowed, no push config.
	cfg, err = parseFlags([]string{"-role", "aggregator", "-peers", "http://n1:8287"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.server.Cluster.Role != server.RoleAggregator || cfg.server.Cluster.PushIntervalSeconds != 0 {
		t.Errorf("cluster config = %+v", cfg.server.Cluster)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad spec", []string{"-spec", "nope:mbits=1"}, "unknown sketch kind"},
		{"underdimensioned spec", []string{"-spec", "sbitmap:n=1e6"}, ""},
		{"negative interval", []string{"-checkpoint-interval", "-1s"}, "negative"},
		{"bad fsync policy", []string{"-fsync", "sometimes"}, "-fsync"},
		{"negative fsync interval", []string{"-fsync-interval", "-1s"}, "negative"},
		{"negative segment bytes", []string{"-wal-segment-bytes", "-1"}, "negative"},
		{"negative durability lag", []string{"-max-durability-lag", "-1s"}, "negative"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"negative window", []string{"-window", "-1m"}, "-window"},
		{"negative ring", []string{"-ring", "-2"}, "-ring"},
		{"ring without window", []string{"-ring", "5"}, "-ring needs -window"},
		{"ring out of range", []string{"-window", "1m", "-ring", "70000"}, "ring"},
		{"window conflicts with spec modifier", []string{
			"-spec", "hll:mbits=4096/windowed(width=1m)", "-window", "2m"}, "conflicts"},
		{"flag retention overflow", []string{"-window", "2562047h", "-ring", "65535"}, "overflow"},
		{"ring past the snapshot's 16 bits", []string{"-window", "1m", "-ring", "65536"}, "ring"},
		{"unknown role", []string{"-role", "router"}, "-role"},
		{"edge without aggregator", []string{"-role", "edge"}, "-aggregator"},
		{"edge with zero push interval", []string{"-role", "edge", "-aggregator", "http://agg:8287", "-push-interval", "0s"}, "push-interval"},
		{"aggregator flag without edge role", []string{"-aggregator", "http://agg:8287"}, "-role edge"},
		{"duplicate peers", []string{"-peers", "http://n1:8287,http://n1:8287"}, "duplicate peer"},
	} {
		cfg, err := parseFlags(tc.args, nil)
		if tc.name == "underdimensioned spec" {
			// The spec parses (dimensioning is checked at construction);
			// server.New must reject it instead.
			if err != nil {
				t.Fatalf("%s: parseFlags: %v", tc.name, err)
			}
			if _, err := server.New(cfg.server); err == nil {
				t.Errorf("%s: server.New accepted it", tc.name)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestHTTPServerClosesSlowHeader: a client that sends half a request
// header and then stalls sees its connection closed once the header
// timeout passes, instead of holding it forever. The test checks the
// limits sketchd runs with, then shortens the header timeout on its own
// server so it finishes in well under a second.
func TestHTTPServerClosesSlowHeader(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != httpReadHeaderTimeout || hs.IdleTimeout != httpIdleTimeout {
		t.Fatalf("header timeout %v, idle timeout %v; want %v, %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, httpReadHeaderTimeout, httpIdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("write timeout %v would cut the alert stream", hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/healthz HTTP/1.1\r\nHost: sketchd\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half-header connection still open after %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Errorf("connection closed after %v, before the header timeout", waited)
	}
}
