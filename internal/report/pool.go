package report

import "sync"

// Report pooling. Decoding dominates ingest allocation: every report arrives
// as bytes, becomes a short-lived *Report, and dies as soon as the engine's
// shard has folded it into the user's profile. Pooled reports recycle the
// struct and the Entries backing array. The strings are not the pool's
// business: both decoders take them from the intern table (intern.go),
// which knows the site's URLs, addresses and kinds whichever pooled report
// a body happens to land in.
//
// Ownership discipline: a pooled report obtained from DecodePooled /
// DecodeBinaryPooled is handed to the engine with the submit call, and the
// engine releases it exactly once on every path out of ingest (processed,
// validation-failed, cancelled while queued, shed, or engine closed). The
// caller must not touch the report after submitting it. Release is a no-op
// for reports the pool did not issue, so code paths shared with caller-owned
// reports need no special casing.

var reportPool = sync.Pool{New: func() any { return new(Report) }}

// acquireReport returns a pooled report whose contents are unspecified; the
// decoders overwrite every field.
func acquireReport() *Report {
	r := reportPool.Get().(*Report)
	r.pooled = true
	return r
}

// Release returns a pooled report to the pool. It is a no-op for nil
// receivers and for reports that did not come from the pool, and must be
// called at most once per decode — after it, the report may be reused by a
// concurrent decoder and must not be read.
func (r *Report) Release() {
	if r == nil || !r.pooled {
		return
	}
	r.pooled = false
	reportPool.Put(r)
}

// Pooled reports whether r came from the report pool and has not been
// released yet.
func (r *Report) Pooled() bool { return r != nil && r.pooled }
