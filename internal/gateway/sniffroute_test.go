package gateway_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"oak"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
)

// TestReportRoutesByTheUserTheBackendFilesItUnder drives cookie-less reports
// whose userId a reader can get wrong — a duplicate key (the last wins), a
// key in another case, an escaped key, a later null (the earlier value
// stands), a userId nested in an entry, an escaped value — through a
// gateway in front of two real backends, as singles and as lines of one
// NDJSON batch. "Gateway-union ≡ single node" needs each report's user to
// exist on the backend that owns its arc and nowhere else; a gateway that
// routes by another reading creates it on the other one.
func TestReportRoutesByTheUserTheBackendFilesItUnder(t *testing.T) {
	var engines [2]*oak.Engine
	var urls []string
	for i := range engines {
		e, err := oak.NewEngine(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ts := httptest.NewServer(oak.NewServer(e))
		defer ts.Close()
		engines[i], urls = e, append(urls, ts.URL)
	}
	gw, err := gateway.NewGateway(gateway.Config{Backends: urls, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	arcs := core.EqualRanges(2)
	owned := func(arc int, tag string) string {
		for s := 0; ; s++ {
			if uid := fmt.Sprintf("%s-%d", tag, s); core.RangeFor(uid, arcs) == arc {
				return uid
			}
		}
	}
	// Each body names a decoy the wrong reading routes by, on the arc the
	// real user is not on ("" is the decoy when the wrong reading finds none).
	const entry = `{"url":"http://cdn.example/a.js","serverAddr":"10.0.0.1","sizeBytes":100,"durationMillis":50}`
	const entries = `"page":"/p","entries":[` + entry + `]`
	emptyArc := core.RangeFor("", arcs)
	// A shape's format takes the decoy as %[1]q and the user as %[2]s,
	// spelled as JSON by spell (strconv.Quote when nil). decoy, when set,
	// is the wrong reading's user for a given user, and the user is drawn
	// so that the two land on different arcs.
	type shape struct {
		name, format string
		spell, decoy func(user string) string
	}
	noUser := func(string) string { return "" }
	// The last byte escaped: the wrong reading keeps the escape.
	escapeLast := func(user string) string {
		return fmt.Sprintf(`"%s\u%04x"`, user[:len(user)-1], user[len(user)-1])
	}
	rawEscaped := func(user string) string { s := escapeLast(user); return s[1 : len(s)-1] }
	shapes := []shape{
		{"duplicate", `{"userId":%[1]q,` + entries + `,"userId":%[2]s}`, nil, nil},
		{"duplicate-adjacent", `{"userId":%[1]q,"userId":%[2]s,` + entries + `}`, nil, nil},
		{"escaped-last", `{"userId":%[1]q,` + entries + `,"\u0075serId":%[2]s}`, nil, nil},
		{"case-variant", `{"userId":%[1]q,` + entries + `,"UserID":%[2]s}`, nil, nil},
		{"later-null", `{"userId":%[2]s,` + entries + `,"userId":null}`, nil, noUser},
		{"nested", `{"page":"/p","entries":[{"userId":%[1]q,"url":"http://cdn.example/b.js"},` + entry + `],"userId":%[2]s}`, nil, nil},
		{"escaped-value", `{"userId":%[2]s,` + entries + `}`, escapeLast, rawEscaped},
	}
	var bodies []string
	users := map[string]int{} // user the backend files the report under → its arc
	for _, via := range []string{"single", "line"} {
		for i, sh := range shapes {
			arc, user, decoy := i%2, "", ""
			if sh.decoy == nil {
				user, decoy = owned(arc, via+"-"+sh.name), owned(1-arc, "decoy")
			} else {
				for s := 0; ; s++ {
					user = fmt.Sprintf("%s-%s-%d", via, sh.name, s)
					if arc = core.RangeFor(user, arcs); core.RangeFor(sh.decoy(user), arcs) != arc {
						break
					}
				}
			}
			spelled := strconv.Quote(user)
			if sh.spell != nil {
				spelled = sh.spell(user)
			}
			users[user] = arc
			bodies = append(bodies, fmt.Sprintf(sh.format, decoy, spelled))
		}
		user := owned(1-emptyArc, via+"-folded")
		users[user] = 1 - emptyArc
		bodies = append(bodies, fmt.Sprintf(`{"USERID":%q,`+entries+`}`, user))
	}

	post := func(contentType, body string, want int) string {
		req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d: %s", contentType, rec.Code, want, rec.Body)
		}
		return rec.Body.String()
	}
	half := len(bodies) / 2
	for _, body := range bodies[:half] {
		post("application/json", body, http.StatusNoContent)
	}
	var merged core.BatchResult
	if err := json.Unmarshal([]byte(post("application/x-ndjson", strings.Join(bodies[half:], "\n"), http.StatusOK)), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Processed != half || merged.Failed != 0 {
		t.Fatalf("batch: %+v, want %d processed", merged, half)
	}

	for user, arc := range users {
		for i, e := range engines {
			if _, has := e.Snapshot(user); has != (i == arc) {
				t.Errorf("user %q (arc %d): on backend %d = %v", user, arc, i, has)
			}
		}
	}
	if n := engines[0].Users() + engines[1].Users(); n != len(users) {
		t.Errorf("backends hold %d users between them, want %d: a decoy was created", n, len(users))
	}
	// And the exports agree: a user is in its owner's export only.
	for i, e := range engines {
		export, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		for user, arc := range users {
			if in := strings.Contains(string(export), `"`+user+`"`); in != (i == arc) {
				t.Errorf("user %q (arc %d): in backend %d's export = %v", user, arc, i, in)
			}
		}
	}
}
