// Package report defines the performance reports Oak clients submit and the
// per-server grouping the Oak server derives from them.
//
// The paper (Sections 4 and 5, "Implementation") uses a HAR-like format
// restricted to three fields per object: the loaded URL, the size of the
// loaded object, and its timing. Reports carry the client's identifying
// cookie so the server can associate performance with a particular user, and
// are submitted via HTTP POST after the page load completes.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// SmallObjectThreshold splits objects into "small" (mean download time is
// the performance signal) and "large" (mean throughput is the signal), per
// Section 4.2 of the paper.
const SmallObjectThreshold = 50 * 1024 // 50 KB

// Entry records one object download: the limited HAR-like field set the
// paper's client emits, plus the server address the connection ultimately
// reached (the client resolves names; Oak groups by address).
type Entry struct {
	// URL is the full URL the object was fetched from.
	URL string `json:"url"`
	// ServerAddr is the address (paper: IP) the client connected to.
	ServerAddr string `json:"serverAddr"`
	// SizeBytes is the size of the downloaded object.
	SizeBytes int64 `json:"sizeBytes"`
	// DurationMillis is the download time in milliseconds. Milliseconds are
	// used on the wire (JSON has no duration type); Duration() converts.
	DurationMillis float64 `json:"durationMillis"`
	// InitiatorURL is the URL of the resource whose content caused this
	// fetch ("" when the page itself did). It encodes the paper's
	// connection-dependency information (Figure 6): Oak only needs to know
	// that a block on the page led to this connection, not execution order.
	InitiatorURL string `json:"initiatorUrl,omitempty"`
	// Kind is the coarse object type (script, image, css, other). Scripts
	// participate in the external-JavaScript rule-matching pass.
	Kind ObjectKind `json:"kind,omitempty"`
	// Failed marks an object the client could not download (provider dead,
	// timed out, or serving errors). DurationMillis then records how long
	// the client spent trying — a dead provider is the strongest
	// under-performance signal a report can carry, so partial page loads
	// still report.
	Failed bool `json:"failed,omitempty"`

	// host caches the hostname of URL; hostKnown distinguishes a computed
	// empty host from "not computed yet". The decoders fill it at decode
	// time, from the intern table; Host() falls back lazily for hand-built
	// entries.
	host      string
	hostKnown bool
}

// Duration returns the entry's download time.
func (e Entry) Duration() time.Duration {
	return time.Duration(e.DurationMillis * float64(time.Millisecond))
}

// Host returns the hostname component of the entry URL, or "" if the URL is
// unparseable. The result is memoized on the entry: decoders precompute it,
// and the first call computes it for entries built in code.
func (e *Entry) Host() string {
	if !e.hostKnown {
		e.host = hostOf(e.URL)
		e.hostKnown = true
	}
	return e.host
}

// IsSmall reports whether the entry falls in the small-object regime
// (timing, not throughput, is its performance signal).
func (e Entry) IsSmall() bool { return e.SizeBytes < SmallObjectThreshold }

// ThroughputBps returns the achieved download throughput in bytes/second,
// or 0 if the duration is not positive.
func (e Entry) ThroughputBps() float64 {
	if e.DurationMillis <= 0 {
		return 0
	}
	return float64(e.SizeBytes) / (e.DurationMillis / 1000)
}

// ObjectKind is the coarse type of a fetched object.
type ObjectKind string

// Object kinds. Scripts matter to rule matching; the rest are informational.
const (
	KindScript ObjectKind = "script"
	KindImage  ObjectKind = "image"
	KindCSS    ObjectKind = "css"
	KindHTML   ObjectKind = "html"
	KindOther  ObjectKind = "other"
)

// Report is one page-load performance report from one client.
type Report struct {
	// UserID is the identifying cookie value Oak issued to this client.
	UserID string `json:"userId"`
	// Page is the site-relative path of the loaded page (e.g. "/index.html").
	Page string `json:"page"`
	// GeneratedAtUnixMs timestamps the report (client clock, Unix millis).
	GeneratedAtUnixMs int64 `json:"generatedAtUnixMs"`
	// Entries lists every object downloaded during the page load.
	Entries []Entry `json:"entries"`

	// pooled marks a report issued by the report pool (see pool.go); Release
	// returns it. Never serialized.
	pooled bool
}

// Validation errors returned by Validate.
var (
	ErrNoUserID  = errors.New("report: missing user id")
	ErrNoEntries = errors.New("report: no entries")
	// ErrOversized: a string is longer than MaxBinaryStringLen, which no
	// OAKRPT1 payload carries and no durable profile record holds, whichever
	// wire the report came in on.
	ErrOversized = errors.New("report: string longer than MaxBinaryStringLen")
)

// Validate checks structural invariants the Oak server relies on.
func (r *Report) Validate() error {
	if r.UserID == "" {
		return ErrNoUserID
	}
	if len(r.Entries) == 0 {
		return ErrNoEntries
	}
	if !r.fits() {
		return ErrOversized
	}
	for i, e := range r.Entries {
		if e.URL == "" {
			return fmt.Errorf("report: entry %d: empty url", i)
		}
		if e.SizeBytes < 0 {
			return fmt.Errorf("report: entry %d: negative size %d", i, e.SizeBytes)
		}
		if e.DurationMillis < 0 {
			return fmt.Errorf("report: entry %d: negative duration %v", i, e.DurationMillis)
		}
	}
	return nil
}

// FailedCount returns how many entries mark failed downloads.
func (r *Report) FailedCount() int {
	n := 0
	for _, e := range r.Entries {
		if e.Failed {
			n++
		}
	}
	return n
}

// GeneratedAt returns the report timestamp as a time.Time.
func (r *Report) GeneratedAt() time.Time {
	return time.UnixMilli(r.GeneratedAtUnixMs)
}

// Marshal encodes the report as JSON (the POST body format).
func (r *Report) Marshal() ([]byte, error) {
	return json.Marshal(r)
}

// WireSize returns the JSON-encoded size of the report in bytes. Figure 15
// of the paper studies this distribution (median < 10 KB).
func (r *Report) WireSize() (int, error) {
	data, err := r.Marshal()
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// PageLoadTime approximates the total page load time as the maximum entry
// duration (objects load concurrently; the slowest gate completes the load).
// It returns 0 for an empty report.
func (r *Report) PageLoadTime() time.Duration {
	var max time.Duration
	for _, e := range r.Entries {
		if d := e.Duration(); d > max {
			max = d
		}
	}
	return max
}

// TotalBytes returns the sum of entry sizes.
func (r *Report) TotalBytes() int64 {
	var total int64
	for _, e := range r.Entries {
		total += e.SizeBytes
	}
	return total
}

// ExternalFraction returns the fraction of entries whose host is neither
// originHost nor one of its subdomains — the paper's Figure 1 metric.
// It returns 0 for an empty report.
func (r *Report) ExternalFraction(originHost string) float64 {
	if len(r.Entries) == 0 {
		return 0
	}
	var external int
	for i := range r.Entries {
		if IsExternalHost(r.Entries[i].Host(), originHost) {
			external++
		}
	}
	return float64(external) / float64(len(r.Entries))
}

// IsExternalHost reports whether host belongs to a different site than
// originHost. Subdomains of the origin do not count as external, matching
// the paper's measurement methodology ("We do not consider sub-domains of
// the original domain to be outside hosts").
func IsExternalHost(host, originHost string) bool {
	if host == "" || originHost == "" {
		return false
	}
	host = strings.ToLower(host)
	originHost = strings.ToLower(originHost)
	if host == originHost {
		return false
	}
	return !strings.HasSuffix(host, "."+originHost)
}
