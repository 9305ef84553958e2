package origin

import (
	"net/http"

	"oak/internal/core"
	"oak/internal/report"
)

// Batch ingestion: POST /oak/v1/report with Content-Type
// application/x-ndjson carries one JSON report per line;
// application/x-oak-report-batch carries concatenated OAKRPT1 frames (see
// report/binary.go). Either way the body is staged whole, like every other
// body, and walked item by item (report.NextItem); each report is ingested
// as soon as it is decoded, through a core.BatchSink, on the handler's own
// goroutine, so a batch is never materialised as a slice of reports and
// uses one core. The response summarises how many reports were processed
// and how many failed — a batch is not transactional, so one malformed
// item does not reject the rest, and reports ingested before an item over
// the size limit stay ingested.

// BatchContentType is the canonical Content-Type marking a POST body on
// ReportPathV1 as an NDJSON batch. The aliases application/ndjson and
// application/jsonl are also accepted.
const BatchContentType = report.ContentTypeNDJSON

// handleReportBatch ingests a batch body of format f. The body is bounded
// by BatchBodyFactor times the single-report limit, refused whole past it,
// and each item by the single-report limit, which answers 413 with the
// items before it ingested. An item that will not decode fails alone; a
// framing error fails once and ends the batch. The response is a JSON
// core.BatchResult counting both alongside the reports the engine rejected.
func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request, f report.Format) {
	body := stageBody(w, r, BatchBodyFactor*s.maxBodyBytes, "batch too large")
	if body == nil {
		return
	}
	// Released on return: a submitted report is decoded free of the body and
	// done with before Submit returns.
	defer body.Release()
	sink := s.engine.StartBatch(r.Context())
	id := s.requestIdentity(r)
	var parse core.BatchResult // reports that never reached the engine
	fail := func(err error) {
		parse.Submitted++
		parse.Failed++
		parse.AddError(err.Error())
	}
	for rest := body.Bytes(); ; {
		item, next, err := report.NextItem(f, rest)
		if err != nil {
			fail(err)
			break
		}
		if item == nil {
			break
		}
		rest = next
		if int64(len(item)) > s.maxBodyBytes {
			http.Error(w, "batch item exceeds report size limit", http.StatusRequestEntityTooLarge)
			return
		}
		rep, err := report.DecodeItem(f, item)
		if err != nil {
			fail(err)
			continue
		}
		stampIdentity(rep, id)
		sink.Submit(rep)
	}
	s.finishBatch(w, r, sink.Wait(), parse)
}

// finishBatch folds parse failures into the engine's batch summary and
// writes the response: 400 for an empty batch, 499 when the client left,
// 503 + Retry-After when the shedding policy refused the whole batch, 200
// with the summary otherwise.
func (s *Server) finishBatch(w http.ResponseWriter, r *http.Request, res, parse core.BatchResult) {
	if res.Submitted == 0 && parse.Submitted == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	allShed := res.Overloaded > 0 && res.Processed == 0 && res.Overloaded == res.Failed
	res.Submitted += parse.Submitted
	res.Failed += parse.Failed
	for _, e := range parse.Errors {
		res.AddError(e)
	}
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
	status := http.StatusOK
	if allShed {
		// Nothing was admitted — the batch as a whole was refused, which is
		// a server state, not a client mistake.
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, res)
}
