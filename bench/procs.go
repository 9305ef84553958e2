package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"oak/internal/origin"
)

// harness owns everything a run leaves on the machine: the work directory
// under bench/out/ and the server processes. cleanup is safe to call from
// any exit path, more than once.
type harness struct {
	repo string // repository root
	dir  string // work directory, removed by cleanup
	bin  string // built oakd / oakgw

	mu    sync.Mutex
	procs map[*proc]struct{}
}

// newHarness creates the work directory and builds the two servers from
// the working tree, once per invocation.
func newHarness(repo string) (*harness, error) {
	out := filepath.Join(repo, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	h := &harness{repo: repo, dir: dir, bin: filepath.Join(dir, "bin"), procs: map[*proc]struct{}{}}
	cmd := exec.Command("go", "build", "-o", h.bin+string(os.PathSeparator), "./cmd/oakd", "./cmd/oakgw")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		h.cleanup()
		return nil, fmt.Errorf("bench: build servers: %v\n%s", err, out)
	}
	return h, nil
}

// runDir returns an empty directory for one run: a run must not find the
// state files or spill segments an earlier run of the same invocation left.
func (h *harness) runDir(name string) (string, error) {
	dir := filepath.Join(h.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	return dir, nil
}

// cleanup kills every server still running and removes the work directory.
func (h *harness) cleanup() {
	h.mu.Lock()
	live := make([]*proc, 0, len(h.procs))
	for p := range h.procs {
		live = append(live, p)
	}
	h.mu.Unlock()
	for _, p := range live {
		p.kill()
	}
	_ = os.RemoveAll(h.dir)
}

// proc is one server process in its own process group.
type proc struct {
	h    *harness
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result
	// healthyAt is when healthz first answered.
	healthyAt time.Time
}

// start launches bin with args, logging to the work directory.
func (h *harness) start(bin, name, addr string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(h.dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, so the whole group can be signalled; and a kill
	// signal if the benchmark itself dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	p := &proc{h: h, name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	h.mu.Lock()
	h.procs[p] = struct{}{}
	h.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) forget() {
	p.h.mu.Lock()
	delete(p.h.procs, p)
	p.h.mu.Unlock()
	_ = p.log.Close()
}

// stop asks the server to shut down (SIGTERM: drain, final state save) and
// waits for it; a server that does not exit in time is killed and reported.
func (p *proc) stop() error {
	// oakd and oakgw install their signal handlers just after they start
	// listening; a SIGTERM in between kills them with no final save. A
	// timed restart asks for shutdown the moment healthz answers, so give
	// the handler a few milliseconds to exist.
	if wait := signalGrace - time.Since(p.healthyAt); wait > 0 {
		time.Sleep(wait)
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-p.done:
		p.forget()
		if p.err != nil {
			return fmt.Errorf("bench: %s exited: %v (%s)", p.name, p.err, p.logTail())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("bench: %s did not exit on SIGTERM", p.name)
	}
}

func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	p.forget()
}

func (p *proc) logTail() string {
	data, err := os.ReadFile(filepath.Join(p.h.dir, p.name+".log"))
	if err != nil {
		return ""
	}
	if len(data) > 400 {
		data = data[len(data)-400:]
	}
	return strings.TrimSpace(string(data))
}

// cpuTicks returns the process's user+system time in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc stat line")
	}
	return ut + st, nil
}

const signalGrace = 10 * time.Millisecond

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// rss returns the process's resident set and its high-water mark, in bytes.
func (p *proc) rss() (now, peak int64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != "VmRSS:" && f[0] != "VmHWM:") {
			continue
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bench: bad /proc status line %q", line)
		}
		if f[0] == "VmRSS:" {
			now = kb << 10
		} else {
			peak = kb << 10
		}
	}
	if now == 0 || peak == 0 {
		return 0, 0, fmt.Errorf("bench: no VmRSS/VmHWM in /proc status")
	}
	return now, peak, nil
}

// freePort returns a 127.0.0.1 address nothing listens on right now.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr, nil
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// getJSON GETs a JSON endpoint into v.
func getJSON(addr, path string, v any) error {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// awaitHealthy polls the address until healthz answers 200, the process
// exits, or ctx ends.
func (p *proc) awaitHealthy(ctx context.Context) error {
	url := "http://" + p.addr + origin.HealthzPathV1
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := scrapeClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.healthyAt = time.Now()
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("bench: %s exited before it was healthy (%s)", p.name, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("bench: %s not healthy: %w", p.name, ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}
