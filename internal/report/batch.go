package report

import (
	"bytes"
	"encoding/binary"
)

// A batch body is read by one walk on both tiers. The origin decodes and
// ingests each item NextItem returns; the gateway routes each item by the
// user SniffItemUser finds in it and reassembles every owner's items with
// JoinItems. Edge and backend therefore cannot disagree about where an item
// starts or ends, which user it belongs to, or where a batch stops.

// NextItem splits the next report off a staged batch body of format f,
// FormatNDJSON or FormatBinaryBatch. For NDJSON the item is the next line
// that is not blank, with the JSON white space around it (a CR included)
// trimmed, and nothing else, so that a line reads as the same bytes POSTed
// alone would; for OAKRPT1 it is the next frame's payload, as
// NextBinaryFrame slices it. A nil item is the end of the body. A framing
// error ends the walk: the stream cannot resync past it. item and rest alias
// body.
func NextItem(f Format, body []byte) (item, rest []byte, err error) {
	if f == FormatBinaryBatch {
		return NextBinaryFrame(body)
	}
	for len(body) > 0 {
		line := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line, body = body[:nl], body[nl+1:]
		} else {
			body = nil
		}
		if line = bytes.Trim(line, jsonSpace); len(line) > 0 {
			return line, body, nil
		}
	}
	return nil, nil, nil
}

// jsonSpace is JSON's white space (RFC 8259, section 2). bytes.TrimSpace
// would also strip Unicode spaces, which encoding/json refuses around a
// report: U+0085 and U+00A0 among them.
const jsonSpace = " \t\r\n"

// JoinItems reassembles items NextItem walked off batch bodies of format f
// into one batch body: NDJSON lines joined by newlines, OAKRPT1 payloads
// each behind its length prefix — the very frame it was walked from, since
// the walk accepts only minimal prefixes.
func JoinItems(f Format, items [][]byte) []byte {
	if f != FormatBinaryBatch {
		return bytes.Join(items, []byte("\n"))
	}
	n := 0
	for _, it := range items {
		n += binary.MaxVarintLen32 + len(it)
	}
	out := make([]byte, 0, n)
	for _, it := range items {
		out = binary.AppendUvarint(out, uint64(len(it)))
		out = append(out, it...)
	}
	return out
}

// Batch reports whether a body of format f is a batch of reports, walked
// with NextItem; a body of any other format is one report.
func (f Format) Batch() bool { return f == FormatNDJSON || f == FormatBinaryBatch }

// binaryItems reports whether f's reports are OAKRPT1 payloads.
func (f Format) binaryItems() bool { return f == FormatBinary || f == FormatBinaryBatch }

// DecodeItem decodes one report of format f — a single report's body, or an
// item NextItem walked off a batch — into a pooled report (DecodePooled or
// DecodeBinaryPooled).
func DecodeItem(f Format, item []byte) (*Report, error) {
	if f.binaryItems() {
		return DecodeBinaryPooled(item)
	}
	return DecodePooled(item)
}

// SniffItemUser returns the userId one report of format f declares, so the
// gateway routes every report to the backend that files it. An OAKRPT1
// report names its user first, so SniffBinaryUser reads only that prefix; a
// JSON report is read by the very decode the backend files it by, so the two
// cannot disagree about which userId key wins. A report that does not decode
// yields "": it still routes deterministically, and the owner backend
// rejects it.
func SniffItemUser(f Format, item []byte) string {
	if f.binaryItems() {
		return SniffBinaryUser(item)
	}
	r, err := DecodePooled(item)
	if err != nil {
		return ""
	}
	user := r.UserID
	r.Release()
	return user
}
