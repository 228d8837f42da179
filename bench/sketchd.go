package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSketchd compiles ./cmd/sketchd from the checkout at root into
// dir and returns the binary's path. The build is not timed.
func buildSketchd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "sketchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sketchd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build sketchd: %w", err)
	}
	return bin, nil
}

// child is one running sketchd process. Its listen addresses come from
// its own log lines, so it can bind port 0.
type child struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string

	done    chan struct{} // closed once the process has been waited for
	waitErr error

	mu  sync.Mutex
	log []string // last log lines, for error reports
}

// childLogKeep bounds the log lines a child retains for diagnostics.
const childLogKeep = 40

// readyTimeout bounds exec-to-ready, recovery included.
const readyTimeout = 120 * time.Second

// startChild execs bin with args and returns once the HTTP listener (and
// the TCP listener when wantTCP) has logged its address and GET /healthz
// has answered. The child is killed if the bench process dies.
func startChild(bin string, args []string, wantTCP bool) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sketchd: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addrs := make(chan struct{})
	go c.readLog(stderr, wantTCP, addrs)

	timeout := time.NewTimer(readyTimeout)
	defer timeout.Stop()
	select {
	case <-addrs:
	case <-c.done:
		return nil, fmt.Errorf("sketchd exited before listening (%v):\n%s", c.waitErr, c.logTail())
	case <-timeout.C:
		c.kill()
		return nil, fmt.Errorf("sketchd not listening after %v:\n%s", readyTimeout, c.logTail())
	}
	if err := c.healthz(); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// readLog scans the child's stderr, publishing the listen addresses once
// known, and reaps the process at EOF (Wait must follow the last read).
func (c *child) readLog(r io.Reader, wantTCP bool, addrs chan struct{}) {
	sc := bufio.NewScanner(r)
	published := false
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		if i := strings.Index(line, " on http://"); i >= 0 && c.httpAddr == "" {
			c.httpAddr = line[i+len(" on http://"):]
		}
		if i := strings.Index(line, "wire ingest on tcp://"); i >= 0 && c.tcpAddr == "" {
			c.tcpAddr = line[i+len("wire ingest on tcp://"):]
		}
		c.log = append(c.log, line)
		if len(c.log) > childLogKeep {
			c.log = c.log[1:]
		}
		ready := c.httpAddr != "" && (!wantTCP || c.tcpAddr != "")
		c.mu.Unlock()
		if ready && !published {
			published = true
			close(addrs)
		}
	}
	io.Copy(io.Discard, r) // a line past the scanner's limit: keep draining
	c.waitErr = c.cmd.Wait()
	close(c.done)
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.log, "\n")
}

// healthz waits for the plain-text liveness probe to answer 200.
func (c *child) healthz() error {
	hc := &http.Client{Timeout: readyTimeout}
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := hc.Get("http://" + c.httpAddr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sketchd /healthz: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has exited. Idempotent.
func (c *child) kill() {
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Kill() // an already-exited process is reaped below either way
	<-c.done
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// (100 on every mainstream Linux build).
const clockTicks = 100

// cpuSeconds reads the child's user+system CPU time from /proc.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) sit at offsets 11 and 12.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// resetPeakRSS sets the child's VmHWM back to its current resident set,
// so the next peakRSSMB reads the peak since this call.
func (c *child) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", c.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
