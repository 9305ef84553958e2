package report

import "bytes"

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
	d := fastDecoder{data: line}
	d.skipWS()
	if !d.consume('{') {
		return nil, false
	}
	d.skipWS()
	for !d.consume('}') {
		key, ok := d.scanPlainString()
		if !ok {
			return nil, false
		}
		d.skipWS()
		if !d.consume(':') {
			return nil, false
		}
		d.skipWS()
		switch {
		case string(key) == "userId":
			if user, ok = d.scanPlainString(); !ok {
				return nil, false
			}
		case bytes.EqualFold(key, userIDKey):
			return nil, false // a case variant: encoding/json matches it too
		default:
			if !d.skipValue() {
				return nil, false
			}
		}
		d.skipWS()
		if d.consume(',') {
			d.skipWS()
		} else if d.i >= len(d.data) || d.data[d.i] != '}' {
			return nil, false
		}
	}
	d.skipWS()
	return user, d.i == len(d.data)
}

// skipValue advances past one JSON value without interpreting it. It is
// exact on well-formed JSON; on anything else it may stop anywhere or return
// false, which is enough: SniffJSONUser owes an answer only for bodies
// Decode accepts.
func (d *fastDecoder) skipValue() bool {
	if d.i >= len(d.data) {
		return false
	}
	switch d.data[d.i] {
	case '"':
		return d.skipString()
	case '{', '[':
		depth := 0
		for d.i < len(d.data) {
			switch d.data[d.i] {
			case '"':
				if !d.skipString() {
					return false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					d.i++
					return true
				}
			}
			d.i++
		}
		return false
	}
	// A number, true, false or null: up to the next delimiter.
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return true
		}
		d.i++
	}
	return false
}

// skipString advances past the string that starts at d.i: to the first quote
// preceded by an even number of backslashes.
func (d *fastDecoder) skipString() bool {
	i := d.i + 1
	for {
		n := bytes.IndexByte(d.data[i:], '"')
		if n < 0 {
			return false
		}
		i += n + 1
		esc := 0
		for j := i - 2; j > d.i && d.data[j] == '\\'; j-- {
			esc++
		}
		if esc%2 == 0 {
			d.i = i
			return true
		}
	}
}
