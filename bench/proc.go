package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout is how long a spawned server may take to answer /readyz.
const readyTimeout = 10 * time.Second

// proc is a spawned pgserve or pgproxy.
type proc struct {
	name    string
	url     string
	cmd     *exec.Cmd
	log     *os.File
	readyMS float64
}

// children tracks every live child so that no exit path — return, failed
// check, panic in main's goroutine, SIGINT/SIGTERM — leaves an orphan.
var children struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

// killOnSignal stops every child when the benchmark is interrupted.
func killOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAll()
		os.Exit(130)
	}()
}

func killAll() {
	children.mu.Lock()
	procs := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc spawns bin listening on a free loopback port, with its stderr
// captured in logDir, and waits until its /readyz answers 200.
func startProc(name, bin, logDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".stderr.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stderr = logf
	dieWithParent(cmd)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = map[*proc]bool{}
	}
	children.procs[p] = true
	children.mu.Unlock()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.readyMS = msSince(start)
				return p, nil
			}
		}
		if time.Since(start) > readyTimeout {
			p.stop()
			return nil, fmt.Errorf("%s: /readyz not 200 within %v (see %s)", name, readyTimeout, logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the process — SIGTERM, then SIGKILL after three seconds — and
// returns once it has been reaped. It is safe to call twice.
func (p *proc) stop() {
	children.mu.Lock()
	live := children.procs[p]
	delete(children.procs, p)
	children.mu.Unlock()
	if !live {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait below reaps it
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // a non-zero exit after SIGTERM is expected
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.log.Close()
}

// resetPeak restarts a process's VmHWM from its current resident set, so that
// the peak read later covers the measured phase only: not set-up, whose few
// large allocations make the peak depend on when a collection happened to
// run, and not earlier runs in the same process.
func resetPeak(pid int) {
	if pid == os.Getpid() {
		runtime.GC()
		debug.FreeOSMemory()
	}
	// Not permitted, or not Linux: the peak stays cumulative.
	_ = os.WriteFile("/proc/"+strconv.Itoa(pid)+"/clear_refs", []byte("5"), 0)
}

// peakMB is the process's peak resident set (VmHWM), 0 if unreadable.
func peakMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
