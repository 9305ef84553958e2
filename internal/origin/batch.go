package origin

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"oak/internal/bodybuf"
	"oak/internal/core"
	"oak/internal/report"
)

// Batch ingestion: POST /oak/v1/report with Content-Type
// application/x-ndjson carries one JSON report per line;
// application/x-oak-report-batch carries concatenated OAKRPT1 frames (see
// report/binary.go). Either way the body is streamed — each report is
// ingested as soon as its bytes are parsed, through a core.BatchSink, on the
// handler's own goroutine, so a batch is never materialised as a slice of
// reports and uses one core. The response summarises how many reports were
// processed and how many failed — a batch is not transactional, so one
// malformed line does not reject the rest, and reports ingested before a
// size limit trips stay ingested.

// BatchContentType is the canonical Content-Type marking a POST body on
// ReportPathV1 as an NDJSON batch. The aliases application/ndjson and
// application/jsonl are also accepted.
const BatchContentType = report.ContentTypeNDJSON

// batchParseErrorCap bounds how many parse-error samples the response
// carries; past it, failures are counted but their messages are not even
// rendered.
const batchParseErrorCap = 4

// batchParseFailures tracks reports that never reached the engine because
// their bytes would not parse.
type batchParseFailures struct {
	count int
	errs  []string
}

// add counts one parse failure, keeping at most batchParseErrorCap distinct
// sample messages (and not rendering the error at all once capped).
func (p *batchParseFailures) add(err error) {
	p.count++
	if len(p.errs) >= batchParseErrorCap {
		return
	}
	msg := err.Error()
	for _, prev := range p.errs {
		if prev == msg {
			return
		}
	}
	p.errs = append(p.errs, msg)
}

// handleReportBatch ingests an NDJSON batch body: one report per line,
// blank lines skipped, each line streamed into the engine as soon as it is
// parsed. Each line is bounded by the single-report body limit; the whole
// body by batchBodyFactor times that. The response is a JSON
// core.BatchResult; reports that fail to parse are counted as failed
// alongside reports the engine rejected.
func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	body := &countingReader{r: io.LimitReader(r.Body, batchBodyFactor*s.maxBodyBytes+1)}
	sink := s.engine.StartBatch(r.Context())
	id := s.requestIdentity(r)
	var parse batchParseFailures

	// The scanner reuses (and overwrites) its buffer line by line, so each
	// report is already decoded free of it; a line longer than the pooled
	// buffer moves the scanner to one of its own.
	scratch := bodybuf.Get(64 * 1024)
	defer scratch.Release()
	sc := bufio.NewScanner(body)
	sc.Buffer(scratch.Bytes(), int(s.maxBodyBytes)+1)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if int64(len(line)) > s.maxBodyBytes {
			http.Error(w, "batch line exceeds report size limit", http.StatusRequestEntityTooLarge)
			return
		}
		rep, err := report.DecodePooled(line)
		if err != nil {
			parse.add(err)
			continue
		}
		stampIdentity(rep, id)
		sink.Submit(rep)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			http.Error(w, "batch line exceeds report size limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	if body.n > batchBodyFactor*s.maxBodyBytes {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	s.finishBatch(w, r, sink.Wait(), &parse)
}

// handleReportBatchBinary ingests a body of concatenated OAKRPT1 frames,
// streaming each frame's report into the engine as it is sliced off. A
// framing error is unrecoverable (the stream cannot resync), so it fails
// the remainder as one parse failure; a frame whose payload will not decode
// fails alone, like a malformed NDJSON line.
func (s *Server) handleReportBatchBinary(w http.ResponseWriter, r *http.Request) {
	body := stageBody(w, r, batchBodyFactor*s.maxBodyBytes, "batch too large")
	if body == nil {
		return
	}
	// Released on return: a submitted report is decoded free of the body and
	// done with before Submit returns.
	defer body.Release()
	sink := s.engine.StartBatch(r.Context())
	id := s.requestIdentity(r)
	var parse batchParseFailures
	for rest := body.Bytes(); ; {
		frame, next, ferr := report.NextBinaryFrame(rest)
		if ferr != nil {
			parse.add(ferr)
			break
		}
		if frame == nil {
			break
		}
		rest = next
		if int64(len(frame)) > s.maxBodyBytes {
			http.Error(w, "batch frame exceeds report size limit", http.StatusRequestEntityTooLarge)
			return
		}
		rep, derr := report.DecodeBinaryPooled(frame)
		if derr != nil {
			parse.add(derr)
			continue
		}
		stampIdentity(rep, id)
		sink.Submit(rep)
	}
	s.finishBatch(w, r, sink.Wait(), &parse)
}

// finishBatch folds parse failures into the engine's batch summary and
// writes the response: 400 for an empty batch, 499 when the client left,
// 503 + Retry-After when the shedding policy refused the whole batch, 200
// with the summary otherwise.
func (s *Server) finishBatch(w http.ResponseWriter, r *http.Request, res core.BatchResult, parse *batchParseFailures) {
	if res.Submitted == 0 && parse.count == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	allShed := res.Overloaded > 0 && res.Processed == 0 && res.Overloaded == res.Failed
	res.Submitted += parse.count
	res.Failed += parse.count
	res.Errors = append(res.Errors, parse.errs...)
	if err := r.Context().Err(); err != nil {
		// The client abandoned the batch; whatever was processed before the
		// abort took effect, but nobody is listening for the summary.
		w.WriteHeader(StatusClientClosedRequest)
		return
	}
	if res.Overloaded > 0 {
		// Some (or all) reports were shed: advertise when to retry them.
		w.Header().Set("Retry-After", retryAfterSeconds(res.RetryAfter))
	}
	if allShed {
		// Nothing was admitted — the batch as a whole was refused, which is
		// a server state, not a client mistake.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(res)
		return
	}
	writeJSON(w, res)
}

// countingReader counts bytes read through it, so the batch handler can
// tell a body that exactly fills the limit from one that overflows it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
