package report

import (
	"bytes"

	"oak/internal/jsonscan"
)

// SniffJSONUser returns the userId a JSON report body declares — exactly
// Decode(line).UserID, or "" when Decode would fail — without decoding the
// entries, for gateway routing. The backend files a report under what
// encoding/json makes of the body: the last userId key wins, keys match in
// any case, and an escaped key counts. The gateway must route by the same
// answer, or a report creates its user on a backend that does not own the
// arc. So the sniff walks every top-level key, skips the other values
// structurally, and answers itself only when each key is a plain string that
// is either exactly "userId" (with a plain string value) or cannot fold to
// it; anything else — a case variant, a backslash or non-ASCII byte in a
// key, a userId that is null or escaped, malformed input — is answered by
// Decode. A malformed line yields "": it still routes deterministically, and
// the owner backend rejects it properly.
func SniffJSONUser(line []byte) string {
	if user, ok := sniffUser(line); ok {
		return string(user)
	}
	r, err := Decode(line)
	if err != nil {
		return ""
	}
	return r.UserID
}

var userIDKey = []byte("userId")

// sniffUser is the walk; false means "not proven, ask Decode".
func sniffUser(line []byte) (user []byte, ok bool) {
	d := jsonscan.Scanner{Data: line}
	d.SkipWS()
	if !d.Consume('{') {
		return nil, false
	}
	d.SkipWS()
	for !d.Consume('}') {
		key, ok := d.ScanPlainString()
		if !ok {
			return nil, false
		}
		d.SkipWS()
		if !d.Consume(':') {
			return nil, false
		}
		d.SkipWS()
		switch {
		case string(key) == "userId":
			if user, ok = d.ScanPlainString(); !ok {
				return nil, false
			}
		case bytes.EqualFold(key, userIDKey):
			return nil, false // a case variant: encoding/json matches it too
		default:
			// Exact on well-formed JSON only, which is enough: the sniff
			// owes an answer only for bodies Decode accepts.
			if !d.SkipValue() {
				return nil, false
			}
		}
		d.SkipWS()
		if d.Consume(',') {
			d.SkipWS()
		} else if d.I >= len(d.Data) || d.Data[d.I] != '}' {
			return nil, false
		}
	}
	d.SkipWS()
	return user, d.I == len(d.Data)
}
