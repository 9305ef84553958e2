package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"oak/internal/bodybuf"
	"oak/internal/htmlscan"
	"oak/internal/report"
)

// HostResolver maps a logical hostname from page markup (e.g.
// "cdn.example") to a reachable base like "127.0.0.1:43117". Integration
// tests and examples run providers as loopback servers, so the client
// resolves names itself rather than through DNS — playing the role the
// browser's resolver plays for the paper's client.
type HostResolver func(host string) (string, bool)

// RetryPolicy bounds the client's retry behaviour: how many attempts a
// fetch or report submission gets, and the exponential-backoff schedule
// (with jitter) between them. The zero value takes defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 3). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// JitterFraction randomises each delay by ±this fraction, so a fleet
	// of clients recovering from the same outage does not retry in
	// lockstep (default 0.2).
	JitterFraction float64
}

// Retry defaults.
const (
	defaultMaxAttempts = 3
	defaultBaseDelay   = 50 * time.Millisecond
	defaultMaxDelay    = time.Second
	defaultJitter      = 0.2
)

// WithDefaults returns the policy with defaults in its zero fields.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
	}
	if p.JitterFraction <= 0 {
		p.JitterFraction = defaultJitter
	}
	return p
}

// WireFormat selects how the client serialises reports for submission.
type WireFormat int

const (
	// WireJSON submits reports as JSON (Content-Type application/json):
	// the default, readable everywhere.
	WireJSON WireFormat = iota
	// WireBinary submits reports in the compact OAKRPT1 binary encoding
	// (Content-Type application/x-oak-report) — typically 60%+ fewer wire
	// bytes than JSON, which matters on the instrumented-client uplink. The
	// origin negotiates by Content-Type, so binary and JSON clients coexist
	// against the same endpoint; a pre-binary origin answers 400, which the
	// client surfaces rather than silently downgrading.
	WireBinary
)

// DefaultObjectTimeout bounds a single object-fetch attempt when
// HTTPClient.ObjectTimeout is zero. A hung provider then costs the page
// load a bounded delay — and yields a failed entry flagging that provider —
// instead of stalling the whole load on one dead connection.
const DefaultObjectTimeout = 10 * time.Second

// DefaultSubmitTimeout bounds a whole report submission — every attempt
// plus every backoff sleep — when HTTPClient.SubmitTimeout is zero. Without
// it, only individual attempts had deadlines, so a dead origin whose 503s
// carried long Retry-After hints could hold a submitter in backoff far past
// any useful horizon.
const DefaultSubmitTimeout = time.Minute

// HTTPClient is an Oak-enabled client over real HTTP: it loads pages,
// measures every object download, and reports the timings back to the Oak
// origin, exactly like the paper's modified-WebKit client.
//
// The client is resilient by default: every object fetch runs under a
// per-object deadline and a bounded retry schedule, a provider that stays
// dead yields a report entry marked Failed (a partial report — exactly the
// under-performance signal the server's detector needs) rather than
// aborting the load, and report submission backs off exponentially with
// jitter, honouring the origin's Retry-After when it sheds load.
type HTTPClient struct {
	// UserID is the client's Oak cookie value. Empty means "let the origin
	// issue one" — the client adopts the Set-Cookie it receives.
	UserID string
	// Resolve maps markup hostnames to reachable addresses.
	Resolve HostResolver
	// HTTP is the transport; nil means a shared default client with a sane
	// timeout (built once, so connections are reused across calls).
	HTTP *http.Client
	// ObjectTimeout bounds each object-fetch attempt (default
	// DefaultObjectTimeout).
	ObjectTimeout time.Duration
	// Retry tunes the backoff schedule for object fetches, page fetches
	// and report submission. Zero fields take defaults.
	Retry RetryPolicy
	// SubmitTimeout bounds a whole report submission including backoff
	// sleeps (default DefaultSubmitTimeout; negative disables the bound).
	SubmitTimeout time.Duration
	// Wire selects the report encoding SubmitReport puts on the wire:
	// WireJSON (default) or the compact WireBinary.
	Wire WireFormat
	// Seed makes the retry jitter deterministic for tests and simulations;
	// 0 seeds from the clock.
	Seed int64

	mu          sync.Mutex
	defaultHTTP *http.Client
	rng         *rand.Rand
}

// httpc returns the underlying http.Client, building (and caching) the
// default exactly once so its transport's connection pool is reused.
func (c *HTTPClient) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.defaultHTTP == nil {
		c.defaultHTTP = &http.Client{Timeout: 30 * time.Second}
	}
	return c.defaultHTTP
}

// Delay is the retry schedule HTTPClient and the cluster gateway's report
// forward share: the wait before retry number retry (0-based) is the
// policy's exponential backoff, spread across [1-j, 1+j] of itself by u, a
// uniform sample from [0, 1), so a fleet does not retry in lockstep. A
// server's Retry-After hint wins when it is longer — the server knows its
// own recovery horizon — clamped to 30 s so a hostile header cannot park the
// caller.
func (p RetryPolicy) Delay(retry int, hint time.Duration, u float64) time.Duration {
	p = p.WithDefaults()
	d := p.BaseDelay << retry
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = time.Duration(float64(d) * (1 + p.JitterFraction*(2*u-1)))
	return max(d, min(hint, 30*time.Second))
}

// RetryableStatus reports whether a response status is worth retrying:
// timeouts, throttling and server-side failures. 4xx apart from 408/429 is
// the client's own fault and will not improve.
func RetryableStatus(code int) bool {
	return code == http.StatusRequestTimeout ||
		code == http.StatusTooManyRequests ||
		code >= 500
}

// RetryAfter parses a response's Retry-After header, returning 0 when absent
// or unparseable. Both RFC 9110 forms are accepted: integral delta-seconds
// and an HTTP-date (http.ParseTime handles the three date layouts), the
// latter converted to a delay relative to now. A date in the past yields 0 —
// retry on the normal backoff schedule. Either way Delay clamps the hint, so
// a far-future date cannot park the caller.
func RetryAfter(h http.Header, now time.Time) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	return max(when.Sub(now), 0)
}

// Sleep sleeps for d or until the context is done, whichever comes first,
// returning the context's error in the latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryDelay is the policy's Delay drawn from the client's own jitter
// source, seeded by Seed.
func (c *HTTPClient) retryDelay(retry int, hint time.Duration) time.Duration {
	c.mu.Lock()
	if c.rng == nil {
		seed := c.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	u := c.rng.Float64()
	c.mu.Unlock()
	return c.Retry.Delay(retry, hint, u)
}

// fetchAttempt is one bounded GET: the request runs under the per-object
// deadline and the full body is read (a truncated body, or one of more than
// maxObjectBytes, is an error, so torn and runaway responses surface instead
// of producing bogus timings).
func (c *HTTPClient) fetchAttempt(rawURL string) ([]byte, int, error) {
	timeout := c.ObjectTimeout
	if timeout <= 0 {
		timeout = DefaultObjectTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := readBody(resp, maxObjectBytes)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return data, resp.StatusCode, nil
}

// fetchObject downloads one object with retries. It returns the body and
// how long the successful attempt took; a provider that stays unreachable
// after the retry schedule is reported as failed (ok=false) together with
// the total time the client spent trying.
func (c *HTTPClient) fetchObject(rawURL string) (data []byte, attemptDur, totalDur time.Duration, ok bool) {
	p := c.Retry.WithDefaults()
	start := time.Now()
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.retryDelay(attempt-1, 0))
		}
		attemptStart := time.Now()
		body, status, err := c.fetchAttempt(rawURL)
		if err == nil && status == http.StatusOK {
			return body, time.Since(attemptStart), time.Since(start), true
		}
		if (err == nil && !RetryableStatus(status)) || errors.Is(err, bodybuf.ErrTooLarge) {
			break // 4xx or an oversized object: trying again will not help
		}
	}
	return nil, 0, time.Since(start), false
}

// LoadPage fetches originBase+path from the Oak origin, loads every
// referenced object, and returns the resulting performance report (without
// submitting it). originBase is e.g. "http://127.0.0.1:40001".
//
// Object failures do not abort the load: an object whose provider stays
// dead through the retry schedule becomes a report entry with Failed set
// and the time the client spent trying as its duration, and the rest of the
// page keeps loading. Only an unreachable origin (or an unresolvable
// hostname, which is a harness configuration error) fails the load.
func (c *HTTPClient) LoadPage(originBase, path string) (*LoadResult, string, error) {
	html, err := c.fetchPage(originBase, path)
	if err != nil {
		return nil, "", err
	}

	rep := &report.Report{
		UserID:            c.UserID,
		Page:              path,
		GeneratedAtUnixMs: time.Now().UnixMilli(),
	}
	var chains []time.Duration
	fetched := make(map[string]bool)

	fetch := func(raw string, kind report.ObjectKind, prefix time.Duration, initiator string) (time.Duration, []byte, error) {
		if fetched[raw] {
			return 0, nil, nil
		}
		host := htmlscan.HostOf(raw)
		if host == "" {
			return 0, nil, nil // relative URL: served inline by the origin
		}
		addr, ok := c.Resolve(host)
		if !ok {
			return 0, nil, fmt.Errorf("client: cannot resolve %q", host)
		}
		u, err := url.Parse(raw)
		if err != nil {
			return 0, nil, fmt.Errorf("client: bad url %q: %w", raw, err)
		}
		fetched[raw] = true
		real := "http://" + addr + u.RequestURI()
		data, attemptDur, totalDur, ok := c.fetchObject(real)
		if !ok {
			// Partial report: the dead provider is recorded, not fatal. The
			// duration is the full time the client spent trying, which is
			// exactly the under-performance the server should see.
			rep.Entries = append(rep.Entries, report.Entry{
				URL:            raw,
				ServerAddr:     addr,
				DurationMillis: float64(totalDur) / float64(time.Millisecond),
				InitiatorURL:   initiator,
				Kind:           kind,
				Failed:         true,
			})
			chains = append(chains, prefix+totalDur)
			return 0, nil, nil
		}
		rep.Entries = append(rep.Entries, report.Entry{
			URL:            raw,
			ServerAddr:     addr,
			SizeBytes:      int64(len(data)),
			DurationMillis: float64(attemptDur) / float64(time.Millisecond),
			InitiatorURL:   initiator,
			Kind:           kind,
		})
		chains = append(chains, prefix+attemptDur)
		return attemptDur, data, nil
	}

	for _, ref := range htmlscan.ExtractRefs(html) {
		kind := kindForTag(ref.Tag, "")
		dur, data, err := fetch(ref.URL, kind, 0, "")
		if err != nil {
			return nil, "", err
		}
		if ref.Tag == "script" && ref.Attr == "src" && data != nil {
			for _, u := range htmlscan.URLsInText(string(data)) {
				if _, _, err := fetch(u, report.KindOther, dur, ref.URL); err != nil {
					return nil, "", err
				}
			}
		}
	}
	for _, inline := range htmlscan.InlineScripts(html) {
		for _, u := range htmlscan.URLsInText(inline) {
			if _, _, err := fetch(u, report.KindOther, 0, ""); err != nil {
				return nil, "", err
			}
		}
	}

	var plt time.Duration
	for _, d := range chains {
		if d > plt {
			plt = d
		}
	}
	return &LoadResult{Report: rep, PLT: plt}, html, nil
}

// fetchPage GETs the page itself from the origin, retrying transport
// errors and 5xx responses on the usual schedule. Without the page there is
// nothing to measure, so exhausting the retries is an error.
func (c *HTTPClient) fetchPage(originBase, path string) (string, error) {
	pageURL := strings.TrimSuffix(originBase, "/") + path
	p := c.Retry.WithDefaults()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.retryDelay(attempt-1, 0))
		}
		req, err := http.NewRequest(http.MethodGet, pageURL, nil)
		if err != nil {
			return "", fmt.Errorf("client: build request: %w", err)
		}
		if c.UserID != "" {
			req.AddCookie(&http.Cookie{Name: "oak-user", Value: c.UserID})
		}
		resp, err := c.httpc().Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: fetch page: %w", err)
			continue
		}
		body, err := readBody(resp, maxObjectBytes)
		if errors.Is(err, bodybuf.ErrTooLarge) {
			return "", fmt.Errorf("client: read page: %w", err)
		}
		if err != nil {
			lastErr = fmt.Errorf("client: read page: %w", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("client: page status %d", resp.StatusCode)
			if RetryableStatus(resp.StatusCode) {
				continue
			}
			return "", lastErr
		}
		for _, ck := range resp.Cookies() {
			if ck.Name == "oak-user" && c.UserID == "" {
				c.UserID = ck.Value
			}
		}
		return string(body), nil
	}
	return "", lastErr
}

// reportPathV1 is the versioned report endpoint (origin.ReportPathV1); kept
// as a local constant so the client does not link the server package.
const reportPathV1 = "/oak/v1/report"

// SubmitResult is the terminal response of a SubmitBytes exchange: the
// status, headers and body of the last response received, whether or not
// that status is a success.
type SubmitResult struct {
	Status int
	Header http.Header
	Body   []byte
}

// SubmitBytes POSTs a pre-serialised body to an endpoint under the
// client's full retry machinery: transport failures and retryable statuses
// (408/429/5xx) are retried with exponential backoff and jitter, a
// Retry-After header from a shedding server is honoured (bounded), and the
// context deadline caps the whole exchange — attempts and backoff sleeps
// alike. The last response received is returned even when its status is a
// failure, so callers can distinguish "the server said no" from "the
// server was never reached" (nil result + error). This is the primitive
// report submission is built on. body must stay untouched until the
// transport is done with it, which over net/http's Transport can be after
// SubmitBytes has returned: a server may answer before it has drained the
// request.
func (c *HTTPClient) SubmitBytes(ctx context.Context, endpoint, contentType string, body []byte, cookies []*http.Cookie) (*SubmitResult, error) {
	u, err := url.Parse(endpoint)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	p := c.Retry.WithDefaults()
	var (
		lastErr error
		last    *SubmitResult
		hint    time.Duration
	)
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := Sleep(ctx, c.retryDelay(attempt-1, hint)); err != nil {
				return last, fmt.Errorf("client: submit deadline: %w", err)
			}
			hint = 0
		}
		// http.NewRequest minus a URL parse per attempt. The body is a
		// *bytes.Reader so that net/http writes it with the headers, not after
		// flushing them.
		req := (&http.Request{
			Method:        http.MethodPost,
			URL:           u,
			Header:        make(http.Header, 2),
			Body:          http.NoBody,
			ContentLength: int64(len(body)),
		}).WithContext(ctx)
		if len(body) > 0 {
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		}
		req.Header.Set("Content-Type", contentType)
		for _, ck := range cookies {
			req.AddCookie(ck)
		}
		resp, err := c.httpc().Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: post: %w", err)
			if ctx.Err() != nil {
				return last, fmt.Errorf("client: submit deadline: %w", ctx.Err())
			}
			continue
		}
		respBody, err := readBody(resp, maxAnswerBytes)
		if errors.Is(err, bodybuf.ErrTooLarge) {
			return nil, fmt.Errorf("client: read response: %w", err)
		}
		if err != nil {
			lastErr = fmt.Errorf("client: read response: %w", err)
			continue
		}
		last = &SubmitResult{Status: resp.StatusCode, Header: resp.Header, Body: respBody}
		if !RetryableStatus(resp.StatusCode) {
			return last, nil
		}
		lastErr = fmt.Errorf("client: status %d", resp.StatusCode)
		hint = RetryAfter(resp.Header, time.Now())
	}
	if last != nil {
		// Retries exhausted but the server did answer: hand the caller the
		// terminal response to act on (or mirror).
		return last, nil
	}
	return nil, lastErr
}

// The client's read bounds. A body over its bound is an error, never a
// prefix: an object becomes a failed entry, a page load fails, a submission
// fails.
const (
	// maxObjectBytes bounds a page or a provider object, as the gateway
	// bounds a relayed body.
	maxObjectBytes = 64 << 20
	// maxAnswerBytes bounds the answer to a submission: a batch summary at
	// most.
	maxAnswerBytes = 1 << 20
)

// readBody reads and closes a response body of at most limit bytes. A
// declared-empty body — every 204 — is not read at all; anything else is
// staged once at its declared size and handed back as a copy the caller
// owns outright, so no result carries a buffer lifetime.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	if resp.ContentLength == 0 {
		return nil, nil
	}
	buf, err := bodybuf.Read(resp.Body, resp.ContentLength, limit)
	if err != nil {
		return nil, err
	}
	defer buf.Release()
	return bytes.Clone(buf.Bytes()), nil
}

// SubmitReport POSTs a report to the Oak origin's versioned report
// endpoint, retrying transport failures and retryable statuses
// (503/5xx/429) with exponential backoff and jitter. A 503 from a
// load-shedding origin carries Retry-After; the client honours it, waiting
// at least that long before the next attempt. The whole submission —
// attempts and sleeps — is bounded by SubmitTimeout.
func (c *HTTPClient) SubmitReport(originBase string, rep *report.Report) error {
	return c.SubmitReportCtx(context.Background(), originBase, rep)
}

// SubmitReportCtx is SubmitReport under a caller-supplied context. The
// client's SubmitTimeout (default DefaultSubmitTimeout, negative disables)
// is layered on as a deadline, so even a background context cannot leave a
// submitter in unbounded backoff against a dead origin.
func (c *HTTPClient) SubmitReportCtx(ctx context.Context, originBase string, rep *report.Report) error {
	var (
		data        []byte
		contentType string
		err         error
	)
	if c.Wire == WireBinary {
		data, err = rep.MarshalBinary()
		contentType = report.ContentTypeBinary
	} else {
		data, err = rep.Marshal()
		contentType = report.ContentTypeJSON
	}
	if err != nil {
		return fmt.Errorf("client: marshal report: %w", err)
	}
	timeout := c.SubmitTimeout
	if timeout == 0 {
		timeout = DefaultSubmitTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	endpoint := strings.TrimSuffix(originBase, "/") + reportPathV1
	var cookies []*http.Cookie
	if c.UserID != "" {
		cookies = append(cookies, &http.Cookie{Name: "oak-user", Value: c.UserID})
	}
	res, err := c.SubmitBytes(ctx, endpoint, contentType, data, cookies)
	if err != nil {
		return fmt.Errorf("client: post report: %w", err)
	}
	if res.Status == http.StatusNoContent {
		return nil
	}
	return fmt.Errorf("client: report status %d", res.Status)
}

// LoadAndReport performs a full Oak round: load the page, submit the report.
func (c *HTTPClient) LoadAndReport(originBase, path string) (*LoadResult, string, error) {
	res, html, err := c.LoadPage(originBase, path)
	if err != nil {
		return nil, "", err
	}
	if err := c.SubmitReport(originBase, res.Report); err != nil {
		return nil, "", err
	}
	return res, html, nil
}
