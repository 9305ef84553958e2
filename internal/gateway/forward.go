package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"oak/internal/bodybuf"
	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/origin"
	"oak/internal/report"
	"oak/internal/rules"
)

// Forwarding: reports and page serves are routed to the backend owning the
// user's hash-ring arc. A report forward retries on the client package's
// schedule (backoff + jitter + Retry-After, bounded by ForwardTimeout). When
// the primary's forward fails at the transport level, the request fails
// over — once — to the standby or the next healthy backend, so a freshly
// dead backend costs a retry schedule, not an error.
//
// Every body the gateway relays is staged whole, once, in a pooled buffer
// (bodybuf): a request body because it is sniffed, split, retried and
// failed over, a page body so that a backend dying mid-body fails over
// instead of truncating the client's page. A staged request body is
// forwarded as it stands, with no copy, and released when its handler
// returns: the gateway's transport touches no request body once a forward
// has returned (transport.go), even for a backend that answers 503 before
// draining it.

// The gateway's bounds on what it reads, a batch's items and every backend
// answer among them. More is an error, never a prefix.
const (
	// maxItemBytes bounds one report of a batch the gateway splits. It is the
	// origin's default report bound, so at that default the gateway stops a
	// batch's walk where the backend's would stop.
	maxItemBytes = origin.DefaultMaxBodyBytes
	// maxForwardBytes bounds a relayed body in either direction, and a polled
	// snapshot. It is the origin's default batch bound, so the gateway never
	// accepts a body a backend at the default would reject outright.
	maxForwardBytes = origin.BatchBodyFactor * maxItemBytes
	// maxStatusBytes bounds the healthz, metrics and population bodies the
	// gateway decodes.
	maxStatusBytes = 8 << 20
	// maxAckBytes bounds the answer to a control verb or a state import, read
	// only to be quoted in an error.
	maxAckBytes = 4 << 10
)

// mirrorHeaders are the response headers the gateway relays from backends.
var mirrorHeaders = []string{"Content-Type", "Retry-After", rules.CacheHintHeader, "ETag", "Cache-Control"}

// reply is a backend's answer: status, header and the whole body, staged.
type reply struct {
	status int
	header http.Header
	body   []byte       // nil when the answer carried none
	buf    *bodybuf.Buf // body's buffer, given back by release
}

func (r *reply) release() {
	if r.buf != nil {
		r.buf.Release()
	}
}

// call is the gateway's one exchange with a backend: method on u with header
// h and body, over the gateway's own transport, the answer read whole and
// closed. A body of more than limit bytes is bodybuf.ErrTooLarge, an error
// like a failed connection; HEAD, 204, 304 and a declared-empty answer read
// nothing. Redirects are answers like any other, never followed. body may be
// a staged buffer: the transport is done with it when call returns.
func (g *Gateway) call(ctx context.Context, u *url.URL, method string, h http.Header, body []byte, limit int64) (reply, error) {
	req := (&http.Request{
		Method:        method,
		URL:           u,
		Header:        h,
		Body:          http.NoBody,
		ContentLength: int64(len(body)),
	}).WithContext(ctx)
	if len(body) > 0 {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	resp, err := g.transport.RoundTrip(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{status: resp.StatusCode, header: resp.Header}
	if method == http.MethodHead || resp.StatusCode == http.StatusNoContent ||
		resp.StatusCode == http.StatusNotModified || resp.ContentLength == 0 {
		return rep, nil
	}
	if rep.buf, err = bodybuf.Read(resp.Body, resp.ContentLength, limit); err != nil {
		return reply{}, fmt.Errorf("read %s %s from %s: %w", method, u.Path, u.Host, err)
	}
	rep.body = rep.buf.Bytes()
	return rep, nil
}

// forwardTo POSTs a report body to one backend, retrying a failed exchange
// and a 408, 429 or 5xx answer on the client package's schedule until the
// attempts or ctx run out. The last answer is returned even when its status
// is a failure; an error means no answer was read, or ctx is done.
func (g *Gateway) forwardTo(ctx context.Context, b *backend, h http.Header, body []byte) (reply, error) {
	var (
		last    reply
		lastErr error
		hint    time.Duration
	)
	for attempt := 0; attempt < g.cfg.Retry.MaxAttempts && ctx.Err() == nil; attempt++ {
		if attempt > 0 && client.Sleep(ctx, g.cfg.Retry.Delay(attempt-1, hint, rand.Float64())) != nil {
			break
		}
		rep, err := g.call(ctx, b.reportURL, http.MethodPost, h, body, maxForwardBytes)
		if err != nil {
			lastErr, hint = err, 0
			continue
		}
		last.release()
		last = rep
		if !client.RetryableStatus(rep.status) {
			return last, nil
		}
		hint = client.RetryAfter(rep.header, time.Now())
	}
	if err := ctx.Err(); err != nil {
		last.release()
		return reply{}, err
	}
	if last.status == 0 {
		return reply{}, lastErr
	}
	return last, nil
}

// forwardWithFailover tries the primary, then the fallback. cookie is the
// oak identity cookie as name=value, or "".
func (g *Gateway) forwardWithFailover(ctx context.Context, i int, contentType string, body []byte, cookie string) (reply, error) {
	h := http.Header{"Content-Type": {contentType}}
	if cookie != "" {
		h["Cookie"] = []string{cookie}
	}
	primary, fallback := g.route(i)
	rep, err := g.forwardTo(ctx, primary, h, body)
	if err == nil || fallback == nil {
		return rep, err
	}
	g.failovers.Inc()
	g.logf("gateway: failover %s -> %s: %v", primary.addr, fallback.addr, err)
	rep, ferr := g.forwardTo(ctx, fallback, h, body)
	if ferr != nil {
		return reply{}, fmt.Errorf("primary: %v; failover: %w", err, ferr)
	}
	return rep, nil
}

// requestCookie returns the request's oak identity cookie, if any.
func requestCookie(r *http.Request) *http.Cookie {
	if c, err := r.Cookie(origin.CookieName); err == nil && c.Value != "" {
		return c
	}
	return nil
}

// handleReport forwards report submissions. A request with an identity
// cookie belongs wholly to that user and forwards unchanged to the owner
// backend; so does a single report, to the owner of the user it declares —
// the user the backend files it under, by the report package's own reading
// of the body (a malformed body routes by "", deterministically, and its
// owner rejects it). A cookie-less batch may mix users, so it is split.
func (g *Gateway) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	staged, err := bodybuf.Read(r.Body, r.ContentLength, maxForwardBytes)
	if errors.Is(err, bodybuf.ErrTooLarge) {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	defer staged.Release()
	body := staged.Bytes()
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ForwardTimeout)
	defer cancel()

	contentType := r.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}
	format := report.ClassifyContentType(contentType)
	ck := requestCookie(r)
	if ck == nil && format.Batch() {
		g.forwardSplit(ctx, w, body, contentType, format)
		return
	}

	userID, cookie := "", ""
	if ck != nil {
		userID, cookie = ck.Value, cookieHeader(ck)
	} else {
		userID = report.SniffItemUser(format, body)
	}
	rep, err := g.forwardWithFailover(ctx, g.ownerIndex(userID), contentType, body, cookie)
	if err != nil {
		http.Error(w, "no backend reachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	g.forwardedReports.Inc()
	mirrorHeader(w, rep.header)
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
	rep.release()
}

// cookieHeader is the identity cookie as a backend receives it, written as
// it stands: the value was parsed from the client's own Cookie header.
func cookieHeader(ck *http.Cookie) string {
	return origin.CookieName + "=" + ck.Value
}

// forwardSplit splits a cookie-less batch of format f by the user each
// item declares — walking it with report.NextItem, as the backend does —
// forwards each owner's items concurrently as one sub-batch, and merges the
// per-backend BatchResults into one answer, in the order the owners' first
// items appear in the body, so a batch's samples do not depend on which
// backend answered first. The walk stops where the backend's would: a
// framing error counts as one failed report on top of what the backends
// answer, and an item over the origin's default report bound answers 413
// once the items before it are forwarded. body and the
// items alias the staged request, which is released after forwardSplit
// returns. The last owner is forwarded on the caller's goroutine: a batch
// for one owner starts no goroutine at all.
func (g *Gateway) forwardSplit(ctx context.Context, w http.ResponseWriter, body []byte, contentType string, f report.Format) {
	groups := make(map[int][][]byte)
	var owners []int // in the order of their first item
	var splitErr error
	tooLarge := false
	for rest := body; ; {
		item, next, err := report.NextItem(f, rest)
		if err != nil {
			splitErr = err
			break
		}
		if item == nil {
			break
		}
		if len(item) > maxItemBytes {
			tooLarge = true
			break
		}
		rest = next
		i := g.ownerIndex(report.SniffItemUser(f, item))
		if groups[i] == nil {
			owners = append(owners, i)
		}
		groups[i] = append(groups[i], item)
	}
	if len(groups) == 0 && !tooLarge {
		if splitErr == nil {
			http.Error(w, "empty batch", http.StatusBadRequest)
			return
		}
		// The body never yielded a single item: nothing to forward, but the
		// client still gets a batch summary, like the origin's.
		origin.WriteJSON(w, http.StatusOK, core.BatchResult{Submitted: 1, Failed: 1, Errors: []string{splitErr.Error()}})
		return
	}

	type part struct {
		items int
		rep   reply
		err   error
	}
	parts := make([]part, len(owners))
	forward := func(p *part, i int) {
		items := groups[i]
		sub := body // one owner and the whole body walked: forwarded as it came
		if len(groups) > 1 || splitErr != nil || tooLarge {
			// Reassemble when owners mix, and when the walk stopped early,
			// so the rest is not forwarded for a backend to count again.
			sub = report.JoinItems(f, items)
		}
		p.items = len(items)
		p.rep, p.err = g.forwardWithFailover(ctx, i, contentType, sub, "")
	}
	var wg sync.WaitGroup
	for k, i := range owners {
		if k == len(owners)-1 {
			forward(&parts[k], i)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			forward(&parts[k], i)
		}()
	}
	wg.Wait()

	var merged core.BatchResult
	fail := func(n int, msg string) {
		merged.Submitted += n
		merged.Failed += n
		merged.AddError(msg)
	}
	retryAfter := 0
	reached := false
	for _, p := range parts {
		if p.err != nil {
			fail(p.items, "backend unreachable: "+p.err.Error())
			continue
		}
		reached = true
		var br core.BatchResult
		jerr := json.Unmarshal(p.rep.body, &br)
		p.rep.release()
		if jerr != nil {
			fail(p.items, fmt.Sprintf("backend status %d", p.rep.status))
			continue
		}
		merged.Submitted += br.Submitted
		merged.Processed += br.Processed
		merged.Failed += br.Failed
		merged.Overloaded += br.Overloaded
		for _, e := range br.Errors {
			merged.AddError(e)
		}
		if secs, perr := strconv.Atoi(p.rep.header.Get("Retry-After")); perr == nil && secs > retryAfter {
			retryAfter = secs
		}
	}
	if tooLarge {
		http.Error(w, "batch item exceeds report size limit", http.StatusRequestEntityTooLarge)
		return
	}
	if !reached {
		http.Error(w, "no backend reachable", http.StatusBadGateway)
		return
	}
	g.forwardedReports.Inc()
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	status := http.StatusOK
	if merged.Overloaded > 0 && merged.Processed == 0 && merged.Overloaded == merged.Failed {
		// Every admitted report was shed: the batch as a whole was refused.
		status = http.StatusServiceUnavailable
	}
	if splitErr != nil {
		// The framing error is one report that never reached a backend:
		// counted after the shed decision, like the origin counts its own
		// parse failures.
		fail(1, splitErr.Error())
	}
	origin.WriteJSON(w, status, merged)
}

// handlePage proxies a page serve to the user's owner backend. The gateway
// owns identity at the cluster edge: a client without a cookie is issued
// one here (so routing is stable before any backend is involved), and
// backend Set-Cookie headers are not relayed.
func (g *Gateway) handlePage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ck := requestCookie(r)
	if ck == nil {
		ck = &http.Cookie{Name: origin.CookieName, Value: origin.NewUserID("oak-gw-"), Path: "/"}
		http.SetCookie(w, ck)
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ForwardTimeout)
	defer cancel()

	i := g.ownerIndex(ck.Value)
	primary, fallback := g.route(i)
	page, body, err := g.proxyPage(ctx, primary, r, ck)
	if err != nil && fallback != nil {
		g.failovers.Inc()
		g.logf("gateway: page failover %s -> %s: %v", primary.addr, fallback.addr, err)
		page, body, err = g.proxyPage(ctx, fallback, r, ck)
	}
	if err != nil {
		http.Error(w, "no backend reachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer page.release()
	g.forwardedPages.Inc()
	mirrorHeader(w, page.header)
	if body == nil {
		// HEAD, a 304 for the client's own copy or a declared-empty body: the
		// length is the backend's word for what a GET would carry.
		if cl := page.header.Get("Content-Length"); cl != "" {
			w.Header().Set("Content-Length", cl)
		}
		w.WriteHeader(page.status)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(page.status)
	_, _ = w.Write(body)
}

// proxyPage answers one page request from one backend: the backend's reply,
// which the caller releases, and the bytes the client gets — nil when it gets
// none (HEAD, a relayed 304), else the reply's body or a held edge variant.
// A GET carries the tags the edge cache holds for the path (and the client's
// own) in If-None-Match, so a backend that picks a body the edge already has
// says 304 and names it instead of shipping it. The backend decides every
// request; a held variant is served only when this exchange named its tag.
// A 304 that names the client's own copy is relayed, so browsers revalidate
// end to end. A 304 that names nothing servable — a variant evicted between
// offer and answer, no ETag at all, a 304 nobody asked for — is fetched
// again without If-None-Match, never passed on as a blank page; every
// failure along the way is a failed forward the caller can fail over.
func (g *Gateway) proxyPage(ctx context.Context, b *backend, r *http.Request, ck *http.Cookie) (reply, []byte, error) {
	var client []string
	offer := ""
	if r.Method == http.MethodGet {
		client = r.Header.Values("If-None-Match")
		offer = g.edge.offer(r.URL.Path, client)
	}
	page, err := g.fetchPage(ctx, b, r, ck, offer)
	if err != nil {
		return reply{}, nil, err
	}
	tag := page.header.Get("ETag")
	if page.status == http.StatusNotModified && r.Method == http.MethodGet {
		if tag != "" && origin.TagListed(client, tag) {
			return page, nil, nil
		}
		if v := g.edge.get(r.URL.Path, tag); v != nil {
			page.status = http.StatusOK
			page.header.Set("Content-Type", v.contentType)
			return page, v.body, nil
		}
		g.edge.refetches.Inc()
		if page, err = g.fetchPage(ctx, b, r, ck, ""); err != nil {
			return reply{}, nil, err
		}
		if page.status == http.StatusNotModified {
			return reply{}, nil, fmt.Errorf("page from %s: 304 to an unconditional GET", b.addr)
		}
		tag = page.header.Get("ETag")
	}
	// Only a strong tag promises these exact bytes.
	if page.status == http.StatusOK && page.body != nil && strings.HasPrefix(tag, `"`) {
		g.edge.put(r.URL.Path, tag, page.header.Get("Content-Type"), page.body)
	}
	return page, page.body, nil
}

// fetchPage performs one backend page GET or HEAD. The body is read to its
// end before anything is relayed: a backend that dies mid-body, or sends
// more than maxForwardBytes, is a failed forward the caller can fail over,
// not a truncated page.
func (g *Gateway) fetchPage(ctx context.Context, b *backend, r *http.Request, ck *http.Cookie, ifNoneMatch string) (reply, error) {
	h := make(http.Header, 2)
	h["Cookie"] = []string{cookieHeader(ck)}
	if ifNoneMatch != "" {
		h["If-None-Match"] = []string{ifNoneMatch}
	}
	return g.call(ctx, b.urlFor(r.URL), r.Method, h, nil, maxForwardBytes)
}

// mirrorHeader relays the selected backend response headers.
func mirrorHeader(w http.ResponseWriter, from http.Header) {
	for _, h := range mirrorHeaders {
		if v := from.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}
