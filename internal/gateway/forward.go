package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"oak/internal/bodybuf"
	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/origin"
	"oak/internal/report"
	"oak/internal/rules"
)

// Forwarding: reports and page serves are routed to the backend owning the
// user's hash-ring arc and carried by the oak client's retry machinery
// (SubmitBytes: backoff + jitter + Retry-After, bounded by ForwardTimeout).
// When the primary's forward fails at the transport level, the request
// fails over — once — to the standby or the next healthy backend, so a
// freshly dead backend costs a retry schedule, not an error.
//
// Every body the gateway relays is staged whole, once, in a pooled buffer
// (bodybuf): a request body because it is sniffed, split, retried and
// failed over, a page body so that a backend dying mid-body fails over
// instead of truncating the client's page. A staged request body is
// forwarded as it stands, with no copy, and released when its handler
// returns: the gateway's transport touches no request body once a forward
// has returned (transport.go), even for a backend that answers 503 before
// draining it.

// maxForwardBytes bounds a relayed body in either direction. It matches the
// origin's worst-case batch bound (16 × 4 MB), so the gateway never accepts
// a body the backend would reject outright.
const maxForwardBytes = 64 << 20

// mirrorHeaders are the response headers the gateway relays from backends.
var mirrorHeaders = []string{"Content-Type", "Retry-After", rules.CacheHintHeader, "ETag", "Cache-Control"}

// forwardTo POSTs a report body to one backend under the gateway's retry
// machinery. body may be a staged buffer: it is not touched after the return.
func (g *Gateway) forwardTo(ctx context.Context, b *backend, contentType string, body []byte, cookies []*http.Cookie) (*client.SubmitResult, error) {
	return g.fwd.SubmitURL(ctx, b.reportURL, contentType, body, cookies)
}

// forwardWithFailover tries the primary, then the fallback. The returned
// backend is the one that actually answered.
func (g *Gateway) forwardWithFailover(ctx context.Context, i int, contentType string, body []byte, cookies []*http.Cookie) (*client.SubmitResult, *backend, error) {
	primary, fallback := g.route(i)
	res, err := g.forwardTo(ctx, primary, contentType, body, cookies)
	if err == nil {
		return res, primary, nil
	}
	if fallback == nil {
		return nil, primary, err
	}
	g.failovers.Inc()
	g.logf("gateway: failover %s -> %s: %v", primary.addr, fallback.addr, err)
	res, ferr := g.forwardTo(ctx, fallback, contentType, body, cookies)
	if ferr != nil {
		return nil, fallback, fmt.Errorf("primary: %v; failover: %w", err, ferr)
	}
	return res, fallback, nil
}

// requestCookie returns the request's oak identity cookie, if any.
func requestCookie(r *http.Request) *http.Cookie {
	if c, err := r.Cookie(origin.CookieName); err == nil && c.Value != "" {
		return c
	}
	return nil
}

// sniffUserID returns the userId a report body — JSON or OAKRPT1 — declares,
// without decoding the entries: the user the owner backend will file the
// report under, by the report package's own reading of the body, so the
// gateway never routes a report to a backend that does not own its user. A
// malformed body yields "" — it still routes deterministically, and the
// owner backend rejects it properly.
func sniffUserID(line []byte) string {
	if report.IsBinary(line) {
		return report.SniffBinaryUser(line)
	}
	return report.SniffJSONUser(line)
}

// handleReport forwards report submissions. A request with an identity
// cookie belongs wholly to that user and forwards unchanged to the owner
// backend. A cookie-less batch may mix users, so it is split by each
// report's self-declared userId — NDJSON line by line, OAKRPT1 batches
// frame by frame — and the sub-batches forwarded to their owners
// concurrently, the results merged.
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
	ck := requestCookie(r)
	if ck == nil {
		// A cookie-less batch may mix users; split it exactly when the
		// backend would read it as a batch.
		switch report.ClassifyContentType(contentType) {
		case report.FormatBinaryBatch:
			g.handleSplitBatchBinary(ctx, w, body, contentType)
			return
		case report.FormatNDJSON:
			g.handleSplitBatch(ctx, w, body, contentType)
			return
		}
	}

	var userID string
	if ck != nil {
		userID = ck.Value
	} else {
		userID = sniffUserID(body)
	}
	var cookies []*http.Cookie
	if ck != nil {
		cookies = append(cookies, ck)
	}
	res, _, err := g.forwardWithFailover(ctx, g.ownerIndex(userID), contentType, body, cookies)
	if err != nil {
		http.Error(w, "no backend reachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	g.forwardedReports.Inc()
	mirror(w, res)
}

// splitLines buckets an NDJSON body's lines by owner backend index. The
// returned slices alias body — the caller keeps body alive until every
// forward completes.
func (g *Gateway) splitLines(body []byte) map[int][][]byte {
	groups := make(map[int][][]byte)
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		var line []byte
		if nl < 0 {
			line, body = body, nil
		} else {
			line, body = body[:nl], body[nl+1:]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		i := g.ownerIndex(sniffUserID(line))
		groups[i] = append(groups[i], line)
	}
	return groups
}

// splitFrames buckets an OAKRPT1 batch body's frames (length prefix
// included, so sub-batches reassemble by plain concatenation) by owner
// backend index. The returned slices alias body. A framing error stops the
// split — the stream cannot resync past it — but the frames already sliced
// still forward; the error comes back for the caller to fold into the
// merged summary as one failed report, mirroring how the origin counts an
// unrecoverable framing error.
func (g *Gateway) splitFrames(body []byte) (map[int][][]byte, error) {
	groups := make(map[int][][]byte)
	rest := body
	for {
		frame, next, err := report.NextBinaryFrame(rest)
		if err != nil {
			return groups, err
		}
		if frame == nil {
			return groups, nil
		}
		i := g.ownerIndex(report.SniffBinaryUser(frame))
		groups[i] = append(groups[i], rest[:len(rest)-len(next)])
		rest = next
	}
}

// handleSplitBatch forwards one owner's worth of NDJSON lines to each
// backend concurrently and merges the per-backend BatchResults into one.
func (g *Gateway) handleSplitBatch(ctx context.Context, w http.ResponseWriter, body []byte, contentType string) {
	g.forwardSplit(ctx, w, body, contentType, g.splitLines(body), []byte("\n"), nil)
}

// handleSplitBatchBinary is handleSplitBatch for OAKRPT1 batch bodies:
// frames are bucketed by their sniffed user, sub-batches reassemble by
// concatenation (each bucketed slice keeps its length prefix), and a
// framing error is folded into the merged summary as one failed report.
func (g *Gateway) handleSplitBatchBinary(ctx context.Context, w http.ResponseWriter, body []byte, contentType string) {
	groups, ferr := g.splitFrames(body)
	g.forwardSplit(ctx, w, body, contentType, groups, nil, ferr)
}

// forwardSplit forwards each owner's sub-batch concurrently and merges the
// per-backend BatchResults into one response. sep joins a group's pieces
// back into a body (newline for NDJSON, nothing for binary frames);
// splitErr, when non-nil, is an unrecoverable framing error counted as one
// failed report on top of whatever the backends answered. body and the
// groups alias the staged request, which is released after forwardSplit
// returns. The last group is forwarded on the caller's goroutine: a batch
// for one owner starts no goroutine at all.
func (g *Gateway) forwardSplit(ctx context.Context, w http.ResponseWriter, body []byte, contentType string, groups map[int][][]byte, sep []byte, splitErr error) {
	if len(groups) == 0 {
		if splitErr == nil {
			http.Error(w, "empty batch", http.StatusBadRequest)
			return
		}
		// The body never yielded a single frame: nothing to forward, but the
		// client still gets a batch summary, like the origin would produce.
		writeBatchResult(w, http.StatusOK, core.BatchResult{
			Submitted: 1, Failed: 1, Errors: []string{splitErr.Error()},
		})
		return
	}

	type part struct {
		lines int
		res   *client.SubmitResult
		err   error
	}
	parts := make([]part, 0, len(groups))
	var mu sync.Mutex
	forward := func(i int, lines [][]byte) {
		sub := body // single-owner batch: forwarded as it came
		if len(groups) > 1 || splitErr != nil {
			// Reassemble when owners mix — and when framing broke, so the
			// trailing garbage is not forwarded for the backend to count a
			// second time.
			sub = bytes.Join(lines, sep)
		}
		res, _, err := g.forwardWithFailover(ctx, i, contentType, sub, nil)
		mu.Lock()
		parts = append(parts, part{lines: len(lines), res: res, err: err})
		mu.Unlock()
	}
	var wg sync.WaitGroup
	left := len(groups)
	for i, lines := range groups {
		if left--; left == 0 {
			forward(i, lines)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			forward(i, lines)
		}()
	}
	wg.Wait()

	var merged core.BatchResult
	retryAfter := 0
	reached := false
	for _, p := range parts {
		if p.err != nil {
			merged.Submitted += p.lines
			merged.Failed += p.lines
			if len(merged.Errors) < 8 {
				merged.Errors = append(merged.Errors, "backend unreachable: "+p.err.Error())
			}
			continue
		}
		reached = true
		var br core.BatchResult
		if jerr := json.Unmarshal(p.res.Body, &br); jerr != nil {
			merged.Submitted += p.lines
			merged.Failed += p.lines
			if len(merged.Errors) < 8 {
				merged.Errors = append(merged.Errors, fmt.Sprintf("backend status %d", p.res.Status))
			}
			continue
		}
		merged.Submitted += br.Submitted
		merged.Processed += br.Processed
		merged.Failed += br.Failed
		merged.Overloaded += br.Overloaded
		for _, e := range br.Errors {
			if len(merged.Errors) < 8 {
				merged.Errors = append(merged.Errors, e)
			}
		}
		if secs, perr := strconv.Atoi(p.res.Header.Get("Retry-After")); perr == nil && secs > retryAfter {
			retryAfter = secs
		}
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
		// The unrecoverable framing error is one report that never reached a
		// backend: counted after the shed decision, like the origin counts
		// its own parse failures.
		merged.Submitted++
		merged.Failed++
		if len(merged.Errors) < 8 {
			merged.Errors = append(merged.Errors, splitErr.Error())
		}
	}
	writeBatchResult(w, status, merged)
}

// writeBatchResult writes a merged batch summary as indented JSON, the same
// shape the origin's batch endpoint produces.
func writeBatchResult(w http.ResponseWriter, status int, res core.BatchResult) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
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
	resp, err := g.proxyPage(ctx, primary, r, ck)
	if err != nil && fallback != nil {
		g.failovers.Inc()
		g.logf("gateway: page failover %s -> %s: %v", primary.addr, fallback.addr, err)
		resp, err = g.proxyPage(ctx, fallback, r, ck)
	}
	if err != nil {
		http.Error(w, "no backend reachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	g.forwardedPages.Inc()
	mirrorHeader(w, resp.header)
	if resp.body == nil {
		// HEAD, or a 304 for the client's own copy: the length is the
		// backend's word for what a GET would carry.
		if cl := resp.header.Get("Content-Length"); cl != "" {
			w.Header().Set("Content-Length", cl)
		}
		w.WriteHeader(resp.status)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
	if resp.staged != nil {
		resp.staged.Release()
	}
}

// pageResponse is one backend's answer to a page request, ready for relay.
type pageResponse struct {
	status int
	header http.Header
	// body is what the client gets: nil when it gets none (HEAD, a relayed
	// 304), else the bytes of staged or of a held edge variant.
	body   []byte
	staged *bodybuf.Buf // the fetched body, if body is its bytes; the caller releases it
}

// proxyPage answers one page request from one backend. A GET carries the
// tags the edge cache holds for the path (and the client's own) in
// If-None-Match, so a backend that picks a body the edge already has says
// 304 and names it instead of shipping it. The backend decides every
// request; a held variant is served only when this exchange named its tag.
// A 304 that names the client's own copy is relayed, so browsers revalidate
// end to end. A 304 that names nothing servable — a variant evicted between
// offer and answer, no ETag at all, a 304 nobody asked for — is fetched
// again without If-None-Match, never passed on as a blank page; every
// failure along the way is a failed forward the caller can fail over.
func (g *Gateway) proxyPage(ctx context.Context, b *backend, r *http.Request, ck *http.Cookie) (*pageResponse, error) {
	var client []string
	offer := ""
	if r.Method == http.MethodGet {
		client = r.Header.Values("If-None-Match")
		offer = g.edge.offer(r.URL.Path, client)
	}
	page, err := g.fetchPage(ctx, b, r, ck, offer)
	if err != nil {
		return nil, err
	}
	tag := page.header.Get("ETag")
	if page.status == http.StatusNotModified && r.Method == http.MethodGet {
		if tag != "" && origin.TagListed(client, tag) {
			return page, nil
		}
		if v := g.edge.get(r.URL.Path, tag); v != nil {
			page.status, page.body = http.StatusOK, v.body
			page.header.Set("Content-Type", v.contentType)
			return page, nil
		}
		g.edge.refetches.Inc()
		if page, err = g.fetchPage(ctx, b, r, ck, ""); err != nil {
			return nil, err
		}
		if page.status == http.StatusNotModified {
			return nil, fmt.Errorf("page from %s: 304 to an unconditional GET", b.addr)
		}
		tag = page.header.Get("ETag")
	}
	// Only a strong tag promises these exact bytes.
	if page.status == http.StatusOK && page.staged != nil && strings.HasPrefix(tag, `"`) {
		g.edge.put(r.URL.Path, tag, page.header.Get("Content-Type"), page.body)
	}
	return page, nil
}

// fetchPage performs one backend page GET or HEAD. The body is read to its
// end before anything is relayed: a backend that dies mid-body, or sends
// more than maxForwardBytes, is a failed forward the caller can fail over,
// not a truncated page.
func (g *Gateway) fetchPage(ctx context.Context, b *backend, r *http.Request, ck *http.Cookie, ifNoneMatch string) (*pageResponse, error) {
	req := (&http.Request{
		Method: r.Method,
		URL:    b.urlFor(r.URL),
		Header: make(http.Header, 2),
	}).WithContext(ctx)
	req.AddCookie(ck)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := g.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	page := &pageResponse{status: resp.StatusCode, header: resp.Header}
	if r.Method == http.MethodHead || resp.StatusCode == http.StatusNotModified {
		return page, nil // no body on the wire
	}
	if page.staged, err = bodybuf.Read(resp.Body, resp.ContentLength, maxForwardBytes); err != nil {
		return nil, fmt.Errorf("read page from %s: %w", b.addr, err)
	}
	page.body = page.staged.Bytes()
	return page, nil
}

// mirrorHeader relays the selected backend response headers.
func mirrorHeader(w http.ResponseWriter, from http.Header) {
	for _, h := range mirrorHeaders {
		if v := from.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// mirror relays a backend response: selected headers, status, body.
func mirror(w http.ResponseWriter, res *client.SubmitResult) {
	mirrorHeader(w, res.Header)
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}
