package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"oak/internal/core"
	"oak/internal/rules"
)

// connections is C: the generator's keep-alive connections, one goroutine
// each.
func connections() int { return min(runtime.NumCPU(), 4) }

const (
	opTimeout = 10 * time.Second
	// lateAfter is how long after its due instant an operation may start
	// before it counts as late.
	lateAfter = time.Millisecond
	// bodySample is the share of rewritten pages whose body is searched for
	// the alternative (the header is checked on every one).
	bodySample = 64
)

// conn is one keep-alive HTTP/1.1 connection. Requests are written as
// prebuilt bytes and responses parsed by net/http's reader, so the
// generator spends little of the two cores it shares with the servers.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
		c.c = nil
	}
}

// response is what the generator checks of one exchange.
type response struct {
	status int
	alt    string // X-Oak-Alternate
	body   []byte // valid until the connection's next exchange
}

// do performs one exchange. Any error closes the connection; the next call
// dials again.
func (c *conn) do(request []byte) (response, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, opTimeout)
		if err != nil {
			return response{}, fmt.Errorf("dial %s: %w", c.addr, err)
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	_ = c.c.SetDeadline(time.Now().Add(opTimeout))
	if _, err := c.c.Write(request); err != nil {
		c.close()
		return response{}, fmt.Errorf("write: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return response{}, fmt.Errorf("read response: %w", err)
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		c.close()
		return response{}, fmt.Errorf("read body: %w", err)
	}
	if resp.Close {
		c.close()
	}
	return response{status: resp.StatusCode, alt: resp.Header.Get(rules.CacheHintHeader), body: c.body.Bytes()}, nil
}

// sample is one timed exchange.
type sample struct {
	kind opKind
	ok   bool
	at   time.Duration // paced: due instant; closed loop: completion, from phase start
	lat  time.Duration // paced: due → last byte; closed loop: send → last byte
	late time.Duration // paced: how long after due the request was sent
}

// phaseResult is what one phase of load produced.
type phaseResult struct {
	samples       []sample
	skipped       int64 // exchanges not checked against the model (user busy)
	ackedReports  int64
	firstFailures []string
}

// runner drives one server address with C connections.
type runner struct {
	w    *world
	wl   *workload
	m    *model
	addr string
}

// phaseOpts says what one phase of load is.
type phaseOpts struct {
	stream   uint64
	rate     int           // > 0: open loop at this rate; 0: closed loop
	duration time.Duration // how long operations are started for
	checkAll bool          // search every rewritten page's body, not one in bodySample
}

// run executes one phase and returns every sample.
func (r *runner) run(po phaseOpts) *phaseResult {
	conns := connections()
	var (
		next    atomic.Uint64
		wg      sync.WaitGroup
		mu      sync.Mutex
		res     = &phaseResult{}
		start   = time.Now()
		perConn = make([][]sample, conns)
	)
	interval := time.Duration(0)
	if po.rate > 0 {
		interval = time.Second / time.Duration(po.rate)
	}
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			g := newOpGen(r.w, r.wl, r.m, po.stream, r.addr)
			c := &conn{addr: r.addr}
			defer c.close()
			var o op
			var skipped, acked int64
			var fails []string
			timer, err := newDueTimer()
			if err != nil {
				fails = append(fails, err.Error())
			} else {
				defer timer.close()
			}
			for err == nil {
				i := next.Add(1) - 1
				var due time.Duration
				if po.rate > 0 {
					due = time.Duration(i) * interval
					if due >= po.duration {
						break
					}
				} else if time.Since(start) >= po.duration {
					break
				}
				g.next(i, &o)
				if po.rate > 0 {
					timer.waitUntil(start.Add(due))
				}
				sent := time.Since(start)
				resp, err := c.do(o.request)
				done := time.Since(start)
				s := sample{kind: o.kind, at: done, lat: done - sent}
				if po.rate > 0 {
					s.at, s.lat, s.late = due, done-due, sent-due
				}
				exclusive := g.exclusive(&o)
				var why string
				if err != nil {
					why = err.Error()
				} else {
					why = r.check(&o, resp, exclusive, po.checkAll)
				}
				s.ok = why == ""
				if !exclusive {
					skipped++
				}
				if s.ok && o.kind != opPage {
					acked += int64(len(o.users))
				}
				g.finish(&o, s.ok)
				if !s.ok && len(fails) < 5 {
					fails = append(fails, fmt.Sprintf("%s #%d: %s", o.kind, o.index, why))
				}
				perConn[ci] = append(perConn[ci], s)
			}
			mu.Lock()
			res.skipped += skipped
			res.ackedReports += acked
			res.firstFailures = append(res.firstFailures, fails...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	for _, s := range perConn {
		res.samples = append(res.samples, s...)
	}
	return res
}

// dueTimer wakes its goroutine at an instant. time.Sleep will not do: with
// every goroutine parked the runtime waits for its own timers in epoll_wait,
// whose timeout is in whole milliseconds, so a 300 µs sleep takes 1.1 ms
// and every paced latency would carry the generator's timer. A timerfd is a
// file to the runtime: its expiry ends the epoll_wait on the instant, and
// unlike a blocking nanosleep(2) the wait holds no scheduler slot, which
// the in-process servers of the traced run need.
type dueTimer struct {
	fd uintptr
	f  *os.File // fd, registered with the runtime's poller
}

func newDueTimer() (*dueTimer, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("bench: timerfd_create: %w", errno)
	}
	return &dueTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (t *dueTimer) close() { _ = t.f.Close() }

// waitUntil sleeps on the timer until shortly before at, then yields in a
// loop until at.
func (t *dueTimer) waitUntil(at time.Time) {
	const spinFor = 150 * time.Microsecond
	if d := time.Until(at) - spinFor; d > 0 {
		// struct itimerspec: no interval, one expiry d from now.
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno == 0 {
			var expirations [8]byte
			_, _ = t.f.Read(expirations[:])
		}
	}
	for time.Until(at) > 0 {
		runtime.Gosched()
	}
}

// check verifies one response: the status always, and against the model
// when no other exchange of the same users was in flight. It returns why
// the exchange failed, or "".
func (r *runner) check(o *op, resp response, exclusive, checkAll bool) string {
	switch o.kind {
	case opReport:
		if resp.status != http.StatusNoContent {
			return fmt.Sprintf("status %d, want 204: %.80s", resp.status, resp.body)
		}
	case opBatch:
		if resp.status != http.StatusOK {
			return fmt.Sprintf("status %d, want 200: %.80s", resp.status, resp.body)
		}
		var br core.BatchResult
		if err := json.Unmarshal(resp.body, &br); err != nil {
			return "batch result: " + err.Error()
		}
		if br.Submitted != len(o.users) || br.Processed != len(o.users) || br.Failed != 0 {
			return fmt.Sprintf("batch result %+v, want %d processed", br, len(o.users))
		}
	case opPage:
		if resp.status != http.StatusOK {
			return fmt.Sprintf("status %d, want 200", resp.status)
		}
		p := r.w.pages[o.pages[0]]
		if !exclusive {
			// Another exchange of this user may be changing the activation
			// right now: either form of the page is right.
			if len(resp.body) == 0 {
				return "empty page"
			}
			return ""
		}
		u := o.users[0]
		if !r.m.expectRewrite(u, p, o.st[0]) {
			if resp.alt != "" {
				return "unexpected " + rules.CacheHintHeader + ": " + resp.alt
			}
			if string(resp.body) != p.html {
				return "page differs from its source for a user with no active rule"
			}
			return ""
		}
		pr := r.w.providers[r.w.afflict[u]]
		if resp.alt == "" {
			return "missing " + rules.CacheHintHeader + " for a user whose rule is active"
		}
		if len(resp.body) != len(p.html)-len(pr.def)+len(pr.alt) {
			return "rewritten page has the wrong length"
		}
		if checkAll || o.index%bodySample == 0 {
			if !bytes.Contains(resp.body, []byte(pr.alt)) || bytes.Contains(resp.body, []byte(pr.def)) {
				return "rewritten page does not carry the alternative in place of the default"
			}
		}
	}
	return ""
}
