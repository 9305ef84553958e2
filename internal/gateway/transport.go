package gateway

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"oak/internal/obs"
)

// The gateway's transport to its backends. One rule: the goroutine that owns
// a request does its I/O. A forward takes a keep-alive connection from a
// per-backend pool, writes the request with one write(2), and reads the
// answer — with net/http's own http.ReadResponse; there is no response parser
// here — on the goroutine that called RoundTrip. net/http's Transport hands
// every request to a write-loop and a read-loop goroutine and back; on a
// saturated two-core box each hand-off is a futex wake-up, and together they
// were a third of the gateway's CPU.
//
// Lifetime: no request body is touched after the response body is closed or
// RoundTrip has failed. That is what lets the gateway forward a staged,
// pooled buffer as it stands (see forward.go).

const (
	// idleConnsPerBackend caps the idle keep-alive connections pooled per
	// backend: well above the forwards one backend sees at once, so a burst
	// does not close and re-dial connections.
	idleConnsPerBackend = 256
	// idleConnTimeout is how long a pooled connection may sit unused. There
	// is no timer: an expired connection is closed when a forward next asks
	// its backend's pool for one.
	idleConnTimeout = 90 * time.Second
	// inlineBodyMax is the largest request body sent from the caller's
	// goroutine, in the same write as the request head: what can be assumed
	// to fit the socket buffers of an idle connection. A larger body is
	// written by a helper goroutine while the caller reads, because a backend
	// may answer without draining it.
	inlineBodyMax = 64 << 10
	// maxResponseHead bounds a backend's status line and headers.
	maxResponseHead = 1 << 20
	// max1xxResponses bounds the interim responses skipped before a final one
	// (net/http's bound).
	max1xxResponses = 5
)

var errResponseHeadTooLarge = fmt.Errorf("gateway: backend response head exceeds %d bytes", maxResponseHead)

// poolKey names one backend's connections.
type poolKey struct{ scheme, host string }

// transport is an http.RoundTripper over pooled HTTP/1.1 keep-alive
// connections, http or https.
type transport struct {
	dialer    net.Dialer
	tlsDialer tls.Dialer

	mu     sync.Mutex
	idle   map[poolKey][]*backendConn // per backend, least recently used first
	closed bool

	dials        obs.Counter // connections opened
	reuses       obs.Counter // requests sent on a pooled connection
	staleRetries obs.Counter // pooled connections found dead, request sent again
}

func newTransport() *transport {
	t := &transport{
		dialer: net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second},
		idle:   make(map[poolKey][]*backendConn),
	}
	t.tlsDialer = tls.Dialer{NetDialer: &t.dialer, Config: &tls.Config{NextProtos: []string{"http/1.1"}}}
	return t
}

// backendConn is one keep-alive connection, owned by one exchange at a time
// or by the pool.
type backendConn struct {
	t         *transport
	key       poolKey
	nc        net.Conn
	br        *bufio.Reader // over the connection itself, see Read
	wbuf      bytes.Buffer  // request head and inline body, reused
	headLeft  int64         // bytes Read may still take; bounds a response head
	expire    func()        // fails pending and future I/O: how a done context reaches the socket
	reused    bool
	idleSince time.Time
}

// Read is the bufio.Reader's source: the connection, less what the current
// response head may still take.
func (c *backendConn) Read(p []byte) (int, error) {
	if c.headLeft <= 0 {
		return 0, errResponseHeadTooLarge
	}
	if int64(len(p)) > c.headLeft {
		p = p[:c.headLeft]
	}
	n, err := c.nc.Read(p)
	c.headLeft -= int64(n)
	return n, err
}

// conn returns a connection to u's host: the most recently used idle one, or
// a new one.
func (t *transport) conn(ctx context.Context, u *url.URL) (*backendConn, error) {
	key := poolKey{u.Scheme, u.Host}
	now := time.Now()
	t.mu.Lock()
	expired := t.pruneLocked(key, now)
	var c *backendConn
	if list := t.idle[key]; len(list) > 0 {
		c, t.idle[key] = list[len(list)-1], list[:len(list)-1]
	}
	t.mu.Unlock()
	closeAll(expired)
	if c != nil {
		c.reused = true
		t.reuses.Inc()
		return c, nil
	}

	nc, err := t.dial(ctx, u)
	if err != nil {
		return nil, err
	}
	t.dials.Inc()
	c = &backendConn{t: t, key: key, nc: nc}
	c.br = bufio.NewReader(c)
	c.expire = func() { _ = nc.SetDeadline(time.Unix(1, 0)) }
	return c, nil
}

// dial opens a connection to u's host; https is TLS from the first byte, and
// HTTP/1.1 either way.
func (t *transport) dial(ctx context.Context, u *url.URL) (net.Conn, error) {
	addr := func(port string) string {
		if u.Port() != "" {
			return u.Host
		}
		return net.JoinHostPort(u.Hostname(), port)
	}
	switch u.Scheme {
	case "http":
		return t.dialer.DialContext(ctx, "tcp", addr("80"))
	case "https":
		return t.tlsDialer.DialContext(ctx, "tcp", addr("443"))
	}
	return nil, fmt.Errorf("gateway: unsupported backend scheme %q", u.Scheme)
}

// pruneLocked removes the connections of key idle for longer than
// idleConnTimeout and returns them for closing.
func (t *transport) pruneLocked(key poolKey, now time.Time) []*backendConn {
	list := t.idle[key]
	n := 0
	for n < len(list) && now.Sub(list[n].idleSince) > idleConnTimeout {
		n++
	}
	if n == 0 {
		return nil
	}
	expired := append([]*backendConn(nil), list[:n]...)
	t.idle[key] = append(list[:0], list[n:]...)
	return expired
}

// put pools a connection whose exchange ended cleanly.
func (t *transport) put(c *backendConn) {
	c.idleSince = time.Now()
	t.mu.Lock()
	pooled := !t.closed && len(t.idle[c.key]) < idleConnsPerBackend
	if pooled {
		t.idle[c.key] = append(t.idle[c.key], c)
	}
	t.mu.Unlock()
	if !pooled {
		c.nc.Close()
	}
}

func closeAll(conns []*backendConn) {
	for _, c := range conns {
		c.nc.Close()
	}
}

// closeIdle drops the pooled connections to base's host: the backend has
// been retired, nothing will touch its pool again.
func (t *transport) closeIdle(base *url.URL) {
	key := poolKey{base.Scheme, base.Host}
	t.mu.Lock()
	list := t.idle[key]
	delete(t.idle, key)
	t.mu.Unlock()
	closeAll(list)
}

// close drops every pooled connection and pools no more.
func (t *transport) close() {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.closed = make(map[poolKey][]*backendConn), true
	t.mu.Unlock()
	for _, list := range idle {
		closeAll(list)
	}
}

// idleConns counts the pooled connections.
func (t *transport) idleConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, list := range t.idle {
		n += len(list)
	}
	return n
}

// RoundTrip performs one exchange. A pooled connection that fails before the
// first byte of a response — the backend closed it while it sat idle — costs
// a retry on another connection, as long as the request body can be replayed;
// a new connection's failure is the request's failure.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	body := req.Body
	if body == http.NoBody {
		body = nil
	}
	for {
		if err := ctx.Err(); err != nil {
			closeBody(body)
			return nil, err
		}
		c, err := t.conn(ctx, req.URL)
		if err != nil {
			closeBody(body)
			return nil, err
		}
		resp, stale, err := c.exchange(ctx, req, body)
		if err == nil {
			return resp, nil
		}
		if !stale || ctx.Err() != nil || (body != nil && req.GetBody == nil) {
			return nil, err
		}
		if body != nil {
			if body, err = req.GetBody(); err != nil {
				return nil, err
			}
		}
		t.staleRetries.Inc()
	}
}

func closeBody(body io.ReadCloser) {
	if body != nil {
		body.Close()
	}
}

// exchange sends req on c and reads the response head. On success the
// connection belongs to the response body, which pools or closes it; on
// failure it is closed, the request body is no longer in use, and stale says
// whether c was a pooled connection that died before answering anything.
func (c *backendConn) exchange(ctx context.Context, req *http.Request, body io.ReadCloser) (resp *http.Response, stale bool, err error) {
	stop := context.AfterFunc(ctx, c.expire)
	writer, err := c.send(req, body)
	answered := false
	if err == nil {
		resp, answered, err = c.readResponse(req)
	}
	if err != nil {
		c.nc.Close() // also unblocks the writer
		if writer != nil {
			<-writer
		}
		stop()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, c.reused && !answered, err
	}
	keep := !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		c.release(stop, writer, keep)
	} else {
		resp.Body = &responseBody{c: c, src: resp.Body, ctx: ctx, stop: stop, writer: writer, keep: keep}
	}
	return resp, false, nil
}

// send writes the request. The head and a body of at most inlineBodyMax go
// out in one write from this goroutine; a larger body is left to a goroutine
// whose outcome arrives on the returned channel. The request body is closed
// by whoever read it.
func (c *backendConn) send(req *http.Request, body io.ReadCloser) (writer <-chan error, err error) {
	n := req.ContentLength
	if body == nil {
		n = 0
	} else if n <= 0 {
		body.Close()
		return nil, errors.New("gateway: request body of undeclared length")
	}
	for i := 0; i < len(req.Method); i++ {
		if b := req.Method[i]; b <= ' ' || b >= 0x7f {
			closeBody(body)
			return nil, fmt.Errorf("gateway: invalid method %q", req.Method)
		}
	}
	w := &c.wbuf
	w.Reset()
	w.WriteString(req.Method)
	w.WriteByte(' ')
	w.WriteString(req.URL.RequestURI())
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(req.URL.Host)
	w.WriteString("\r\n")
	if body != nil || req.Method == http.MethodPost || req.Method == http.MethodPut || req.Method == http.MethodPatch {
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), n, 10))
		w.WriteString("\r\n")
	}
	// Header.WriteSubset drops invalid field names and folds line breaks out
	// of values, so a header cannot smuggle a second request.
	_ = req.Header.WriteSubset(w, framingHeaders)
	w.WriteString("\r\n")

	if body != nil && n <= inlineBodyMax {
		w.Grow(int(n))
		p := w.AvailableBuffer()[:n]
		_, err := io.ReadFull(body, p)
		body.Close()
		if err != nil {
			return nil, fmt.Errorf("gateway: request body shorter than its Content-Length: %w", err)
		}
		w.Write(p)
		body = nil
	}
	if _, err := c.nc.Write(w.Bytes()); err != nil {
		closeBody(body)
		return nil, err
	}
	if body == nil {
		return nil, nil
	}
	done := make(chan error, 1)
	go func() {
		// A *bytes.Reader body writes itself: one Write of the whole slice.
		sent, err := io.Copy(c.nc, body)
		body.Close()
		if err == nil && sent != n {
			err = fmt.Errorf("gateway: request body of %d bytes, declared %d", sent, n)
		}
		done <- err
	}()
	return done, nil
}

// framingHeaders are the request headers send writes itself.
var framingHeaders = map[string]bool{"Host": true, "Content-Length": true, "Transfer-Encoding": true, "Trailer": true}

// readResponse reads the head of the final response, skipping interim 1xx
// ones. answered says whether the backend sent anything at all.
func (c *backendConn) readResponse(req *http.Request) (resp *http.Response, answered bool, err error) {
	c.headLeft = maxResponseHead
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, err
	}
	for interim := 0; ; interim++ {
		resp, err = http.ReadResponse(c.br, req)
		if err != nil {
			return nil, true, err
		}
		if resp.StatusCode < 100 || resp.StatusCode > 199 || resp.StatusCode == http.StatusSwitchingProtocols {
			break
		}
		if interim == max1xxResponses {
			return nil, true, errors.New("gateway: too many 1xx responses from backend")
		}
	}
	c.headLeft = math.MaxInt64
	return resp, true, nil
}

// release ends an exchange: the connection is pooled when reusable holds,
// the request body went out whole, nothing unread is buffered and the context
// has not fired; otherwise it is closed. It returns only once the body writer
// has.
func (c *backendConn) release(stop func() bool, writer <-chan error, reusable bool) {
	if writer != nil {
		select {
		case err := <-writer:
			reusable = reusable && err == nil
		default:
			// Answered before the body was drained: the rest is not wanted.
			c.nc.Close()
			<-writer
			reusable = false
		}
	}
	if !stop() {
		reusable = false // expire ran or is running
	}
	if reusable && c.br.Buffered() == 0 {
		c.t.put(c)
	} else {
		c.nc.Close()
	}
}

// responseBody is a response's body and the owner of its connection. Read
// and Close are for one goroutine, the one that called RoundTrip.
type responseBody struct {
	c      *backendConn
	src    io.Reader // the body http.ReadResponse framed
	ctx    context.Context
	stop   func() bool
	writer <-chan error
	keep   bool
	end    error // what Read returns now that the connection is gone
}

func (b *responseBody) Read(p []byte) (int, error) {
	if b.end != nil {
		return 0, b.end
	}
	n, err := b.src.Read(p)
	if err != nil {
		if cerr := b.ctx.Err(); cerr != nil && err != io.EOF {
			err = cerr
		}
		b.finish(err)
	}
	return n, err
}

// Close gives the connection up. A body not read to its end costs the
// connection, not a drain.
func (b *responseBody) Close() error {
	b.finish(http.ErrBodyReadAfterClose)
	return nil
}

func (b *responseBody) finish(end error) {
	if b.end == nil {
		b.end = end
		b.c.release(b.stop, b.writer, b.keep && end == io.EOF)
	}
}
