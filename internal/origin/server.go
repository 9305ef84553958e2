// Package origin provides the HTTP half of the Oak server (Section 4 of the
// paper): an origin web server that issues identifying cookies, rewrites
// outgoing pages through the Oak engine on a per-user basis, and accepts
// client performance reports via HTTP POST — plus configurable external
// content servers to stand in for third-party providers in integration
// tests and examples.
package origin

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"

	"oak/internal/bodybuf"
	"oak/internal/core"
	"oak/internal/obs"
	"oak/internal/report"
	"oak/internal/rules"
)

// CookieName is the identifying cookie Oak issues to each client.
const CookieName = "oak-user"

// The HTTP API is versioned: every endpoint is mounted under /oak/v1/.
const (
	// V1Prefix is the versioned API mount point.
	V1Prefix = "/oak/v1"
	// ReportPathV1 is the endpoint performance reports are POSTed to. A
	// body with Content-Type application/json (or none) is one report; an
	// NDJSON Content-Type (see BatchContentType) marks a batch of one report
	// per line; application/x-oak-report carries one binary OAKRPT1 report
	// and application/x-oak-report-batch a stream of OAKRPT1 frames (see
	// report.ClassifyContentType).
	ReportPathV1 = V1Prefix + "/report"
	// AuditPathV1 serves the operator audit summary (the paper's "offline
	// auditing tool"): which components of the site under-perform in the
	// wild, per rule and per server. Deployments should restrict access to
	// it (it is operator-facing, not client-facing).
	AuditPathV1 = V1Prefix + "/audit"
)

// maxReportBytes is the default bound on single-report bodies; the paper
// measures a worst case of ~345 KB on the Alexa 500, so 4 MB is a generous
// ceiling. WithMaxBodyBytes overrides it.
const maxReportBytes = 4 << 20

// batchBodyFactor scales the single-report body bound up for NDJSON batch
// bodies: a batch may carry batchBodyFactor reports' worth of bytes, while
// each individual line stays under the single-report bound.
const batchBodyFactor = 16

// StatusClientClosedRequest is the nginx-convention status recorded when
// the client abandoned the request (context cancelled) before the engine
// finished with it. The client is gone, so the code is for logs and
// middleware, not the wire.
const StatusClientClosedRequest = 499

// DefaultRewriteBudget bounds how long page delivery waits for the engine's
// per-user rewrite before serving the page unmodified (degraded mode). The
// rewrite path normally takes microseconds; hitting this budget means the
// user's shard is wedged — ingest saturation, a stuck script fetch — and an
// unrewritten page beats a stalled one.
const DefaultRewriteBudget = 500 * time.Millisecond

// Server is an Oak-fronted origin web server.
//
// Construction is NewServer(engine, opts...); the zero-option form wraps an
// engine with default limits and cookie-based user identification. The page
// registry (SetPage / RemovePage / Pages) is the engine's, and may be
// mutated at any time, including while the server is serving.
type Server struct {
	engine  *core.Engine
	started time.Time

	// Options (fixed after NewServer).
	userIDFn      func(*http.Request) string
	maxBodyBytes  int64
	rewriteBudget time.Duration

	// pagesDegraded counts page deliveries that hit the rewrite budget and
	// were served unmodified; pagesNotModified counts those answered 304
	// because the requester already held the chosen bytes.
	pagesDegraded    obs.Counter
	pagesNotModified obs.Counter
}

var _ http.Handler = (*Server)(nil)

// Option configures a Server at construction time.
type Option func(*Server)

// WithUserIDFunc overrides how the server identifies the user behind a
// request. The function is consulted first for both page delivery and
// report ingestion; when it returns "", the default cookie mechanism
// applies (read the oak-user cookie, issuing one on page delivery if the
// client has none). Use it to derive identity from an authentication
// header, a TLS client certificate, or an existing session system.
func WithUserIDFunc(f func(*http.Request) string) Option {
	return func(s *Server) { s.userIDFn = f }
}

// WithMaxBodyBytes bounds single-report bodies to n bytes (default 4 MB).
// NDJSON batch bodies may total 16× the bound, with each line individually
// under it. Non-positive n keeps the default.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBodyBytes = n
		}
	}
}

// WithRewriteBudget bounds how long page delivery waits for the per-user
// rewrite before falling back to the unmodified page (default
// DefaultRewriteBudget). Degraded deliveries are counted in the metrics
// endpoint's pages_degraded. Non-positive d disables the budget: page
// delivery then blocks for as long as the rewrite takes, pre-resilience
// behaviour.
func WithRewriteBudget(d time.Duration) Option {
	return func(s *Server) { s.rewriteBudget = d }
}

// WithPagesFrom registers every *.html file in fsys at its slash-rooted
// path (index.html files also at their directory path), like LoadPages. It
// is meant for embedded page bundles (embed.FS); a filesystem that fails
// mid-walk is a programming error and panics. Load pages from disk with
// LoadPages instead, which reports errors.
func WithPagesFrom(fsys fs.FS) Option {
	return func(s *Server) {
		if _, err := s.LoadPages(fsys); err != nil {
			panic(fmt.Sprintf("origin: WithPagesFrom: %v", err))
		}
	}
}

// NewServer wraps an engine. The zero-option form serves an empty page
// registry (populate it with SetPage or LoadPages) with default limits.
func NewServer(engine *core.Engine, opts ...Option) *Server {
	s := &Server{
		engine:        engine,
		started:       time.Now(),
		maxBodyBytes:  maxReportBytes,
		rewriteBudget: DefaultRewriteBudget,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Engine returns the underlying Oak engine.
func (s *Server) Engine() *core.Engine { return s.engine }

// SetPage registers (or replaces) the default markup for a path with the
// engine, which indexes it on its first serve.
func (s *Server) SetPage(path, html string) { s.engine.SetPage(path, html) }

// RemovePage deletes the page registered at path, if any. Subsequent
// requests for the path get 404; per-user rule state is unaffected.
func (s *Server) RemovePage(path string) { s.engine.RemovePage(path) }

// Pages returns the registered page paths, sorted.
func (s *Server) Pages() []string { return s.engine.Pages() }

// LoadPages walks fsys and registers every *.html file at its slash-rooted
// path ("dir/index.html" serves at "/dir/index.html" and also at "/dir/").
// It returns how many files were registered. Already-registered paths are
// replaced; other paths are left alone, so several bundles can be layered.
func (s *Server) LoadPages(fsys fs.FS) (int, error) {
	count := 0
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".html") {
			return nil
		}
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		urlPath := "/" + path.Clean(p)
		s.SetPage(urlPath, string(data))
		if strings.HasSuffix(urlPath, "/index.html") {
			s.SetPage(strings.TrimSuffix(urlPath, "index.html"), string(data))
		}
		count++
		return nil
	})
	if err != nil {
		return count, fmt.Errorf("origin: load pages: %w", err)
	}
	return count, nil
}

// ServeHTTP implements the two server-side interactions of Figure 4/5:
// page delivery with per-user modification, and report ingestion. Any path
// that is not an /oak/v1 endpoint is a page lookup.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case ReportPathV1:
		s.handleReport(w, r)
	case AuditPathV1:
		s.handleAudit(w, r)
	case MetricsPathV1:
		s.handleMetrics(w, r)
	case HealthzPathV1:
		s.handleHealthz(w, r)
	case TracePathV1:
		s.handleTrace(w, r)
	case PopulationPathV1:
		s.handlePopulation(w, r)
	case StatePathV1:
		s.handleState(w, r)
	case GuardQuarantinePathV1:
		s.handleGuardQuarantine(w, r)
	case GuardReleasePathV1:
		s.handleGuardRelease(w, r)
	case PopulationDegradePathV1:
		s.handlePopulationDegrade(w, r)
	case PopulationClearPathV1:
		s.handlePopulationClear(w, r)
	default:
		s.handlePage(w, r)
	}
}

// handleAudit serves the operator audit summary as plain text; a spilled
// record that cannot be read for an I/O reason is a 500, as for an export.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	a, err := s.engine.Audit()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, a.Render())
}

// handlePage serves a page, issuing a cookie if the client lacks one and
// applying the user's active rules before delivery. Page delivery is the
// surface that must never stall: when the rewrite cannot complete within
// the rewrite budget (the user's shard is wedged by saturated ingest or a
// stuck matcher fetch), the page is served unmodified — degraded, but
// available.
//
// Every body is served under the entity tag its plan carries, which no serve
// computes by hashing the body: the page's own for untouched bytes, one
// derived from the page tag and the activations for a rewrite, none for a
// body built on the panic path. A GET whose If-None-Match lists the chosen
// tag is answered 304 with no body — after the per-user decision and all its
// accounting have run exactly as for a 200, so the requester learns which
// bytes this user gets now, not merely that some copy is current. Pages are
// per-user, hence "private, no-cache": a holder may keep the bytes but must
// ask every time. The body goes out segment by segment, with
// io.WriteString: net/http's response buffers coalesce the segments into the
// same socket writes one whole-body write would make.
func (s *Server) handlePage(w http.ResponseWriter, r *http.Request) {
	p := s.engine.Page(r.URL.Path)
	if p == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	userID := s.userID(w, r)
	plan := s.planBudgeted(userID, p)
	h := w.Header()
	if plan.Hint != "" {
		h.Set(rules.CacheHintHeader, plan.Hint)
	}
	h.Set("Cache-Control", "private, no-cache")
	if plan.ETag != "" {
		h.Set("ETag", plan.ETag)
		if r.Method == http.MethodGet && TagListed(r.Header.Values("If-None-Match"), plan.ETag) {
			s.pagesNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", "text/html; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(plan.Length))
	if r.Method == http.MethodHead {
		return
	}
	for _, seg := range plan.Segments {
		_, _ = io.WriteString(w, seg)
	}
}

// TagListed reports whether an If-None-Match header (every line of it)
// lists tag, by strong comparison: an entry matches only if it is tag
// itself, so a weak W/"…" form of it does not, and "*" is not honoured — a
// page is chosen per user, and "any current representation" says nothing
// about which one the requester holds.
func TagListed(ifNoneMatch []string, tag string) bool {
	for _, line := range ifNoneMatch {
		for line != "" {
			var entry string
			entry, line, _ = strings.Cut(line, ",")
			if strings.TrimSpace(entry) == tag {
				return true
			}
		}
	}
	return false
}

// planBudgeted plans the page under the rewrite budget, returning the
// untouched page's plan when the budget lapses.
//
// It first asks the engine for a plan without waiting: unless the user's
// shard lock is held or their activations are in a spilled record, the plan
// is made on this goroutine, with no watchdog goroutine or timer — and,
// because that path never waits on anything, it can never be degraded. Only
// plans that must wait go through the budget machinery; the abandoned
// goroutine finishes (harmlessly) once the engine unwedges; it can never
// write to the response.
func (s *Server) planBudgeted(userID string, p *core.Page) core.Plan {
	if plan, ok := s.engine.ServePage(userID, p, false); ok {
		return plan
	}
	if s.rewriteBudget <= 0 {
		plan, _ := s.engine.ServePage(userID, p, true)
		return plan
	}
	done := make(chan core.Plan, 1)
	go func() {
		plan, _ := s.engine.ServePage(userID, p, true)
		done <- plan
	}()
	timer := time.NewTimer(s.rewriteBudget)
	defer timer.Stop()
	select {
	case plan := <-done:
		return plan
	case <-timer.C:
		s.pagesDegraded.Inc()
		return p.Untouched()
	}
}

// PagesDegraded returns how many page deliveries were served unmodified
// because the rewrite budget lapsed.
func (s *Server) PagesDegraded() uint64 { return s.pagesDegraded.Value() }

// handleReport ingests performance reports, negotiating the wire format by
// Content-Type: one JSON report per request by default, one per line for
// NDJSON, a single OAKRPT1 payload for application/x-oak-report, and
// concatenated OAKRPT1 frames for application/x-oak-report-batch. Every
// format decodes into pooled report structs whose ownership passes to the
// engine at submission.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	format := report.ClassifyContentType(r.Header.Get("Content-Type"))
	switch format {
	case report.FormatBinaryBatch:
		s.handleReportBatchBinary(w, r)
		return
	case report.FormatNDJSON:
		s.handleReportBatch(w, r)
		return
	}
	body := stageBody(w, r, s.maxBodyBytes, "report too large")
	if body == nil {
		return
	}
	// The decoders copy every string out of the body and ingest is
	// synchronous, so nothing refers to the buffer once the handler returns.
	defer body.Release()
	var (
		rep *report.Report
		err error
	)
	if format == report.FormatBinary {
		rep, err = report.DecodeBinaryPooled(body.Bytes())
	} else {
		rep, err = report.DecodePooled(body.Bytes())
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.stampIdentity(rep, r)
	if _, err := s.engine.HandleReportCtx(r.Context(), rep); err != nil {
		s.writeIngestError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// stageBody reads a request body whole into a pooled buffer the caller must
// release. When it cannot — more than limit bytes (413, with the tooLarge
// message) or a failed read (400) — it has answered and returns nil.
func stageBody(w http.ResponseWriter, r *http.Request, limit int64, tooLarge string) *bodybuf.Buf {
	body, err := bodybuf.Read(r.Body, r.ContentLength, limit)
	switch {
	case errors.Is(err, bodybuf.ErrTooLarge):
		http.Error(w, tooLarge, http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "read body", http.StatusBadRequest)
	}
	return body
}

// writeIngestError maps an engine ingest error to the HTTP status that
// tells the client the truth: overload and shutdown are retryable server
// states (503 + Retry-After), a cancelled request is the client's own abort
// (499, nginx convention), and everything else — validation failures — is a
// malformed request (400).
func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrOverloaded):
		retryAfter := core.DefaultRetryAfter
		var oe *core.OverloadError
		if errors.As(err, &oe) && oe.RetryAfter > 0 {
			retryAfter = oe.RetryAfter
		}
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
	case errors.Is(err, core.ErrShuttingDown):
		w.Header().Set("Retry-After", retryAfterSeconds(core.DefaultRetryAfter))
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status is for logs and middleware.
		w.WriteHeader(StatusClientClosedRequest)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// retryAfterSeconds renders a duration as the integral seconds the
// Retry-After header requires, rounding up so "500ms" does not become "0".
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// stampIdentity overrides the report's self-declared user ID with the
// request's authoritative identity, when one exists: a report must not
// mutate another user's profile. The configured user-ID function wins over
// the cookie.
func (s *Server) stampIdentity(rep *report.Report, r *http.Request) {
	if s.userIDFn != nil {
		if id := s.userIDFn(r); id != "" {
			rep.UserID = id
			return
		}
	}
	if c, err := r.Cookie(CookieName); err == nil && c.Value != "" {
		rep.UserID = c.Value
	}
}

// userID returns the request's Oak user id: the configured user-ID function
// first, then the cookie, then a freshly issued cookie.
func (s *Server) userID(w http.ResponseWriter, r *http.Request) string {
	if s.userIDFn != nil {
		if id := s.userIDFn(r); id != "" {
			return id
		}
	}
	if c, err := r.Cookie(CookieName); err == nil && c.Value != "" {
		return c.Value
	}
	id := NewUserID("oak-")
	http.SetCookie(w, &http.Cookie{Name: CookieName, Value: id, Path: "/"})
	return id
}

// NewUserID issues an identity for a client that presented none: prefix
// plus 128 random bits in hex. IDs are unguessable and never repeat across
// processes or restarts — a counter restarting at 1 would hand a new visitor
// the ID, and with it the profile and activations, of a user restored from
// the state file.
func NewUserID(prefix string) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The kernel's entropy source failing leaves nothing safe to issue;
		// net/http confines the panic to this request.
		panic("origin: crypto/rand: " + err.Error())
	}
	return prefix + hex.EncodeToString(b[:])
}
