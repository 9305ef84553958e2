package origin

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

// stagedReport is report k of one user's stream: the same clear violator as
// binaryReport, with timings and a URL length that differ per (user, k) so
// no two bodies are alike or the same size.
func stagedReport(user string, k int) *report.Report {
	rep := binaryReport(user)
	rep.Page = fmt.Sprintf("/p%d", k%3)
	for i := range rep.Entries {
		rep.Entries[i].DurationMillis += float64(k)
		rep.Entries[i].URL += "?" + strings.Repeat("q", 20*k+len(user))
	}
	return rep
}

// TestReportBodiesAreNotRetained is the origin's half of the body-staging
// rule: a report's pooled body goes back when its handler returns, so the
// engine must hold nothing that points into it. 64 clients post their own
// report streams at once, in all four wire formats, recycling each other's
// buffers; the exported state must equal that of an engine handed the same
// reports one at a time with no HTTP in between. Under -race a released buffer is overwritten
// at once, so a retained byte changes the export (or trips the detector)
// even if no other request has reused the buffer yet.
func TestReportBodiesAreNotRetained(t *testing.T) {
	const clients, perClient = 64, 8
	fixed := time.Unix(1700000000, 0)
	build := func() (*core.Engine, *httptest.Server) {
		engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithClock(func() time.Time { return fixed }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.Close() })
		ts := httptest.NewServer(NewServer(engine))
		t.Cleanup(ts.Close)
		return engine, ts
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()

	// post sends report k of a client in the wire format (c+k)%4 picks; the
	// batch formats carry that one report, so a user's reports stay ordered.
	post := func(ts *httptest.Server, c, k int) error {
		rep := stagedReport(fmt.Sprintf("staged-u%d", c), k)
		var (
			body        []byte
			contentType string
			want        = http.StatusNoContent
			err         error
		)
		switch (c + k) % 4 {
		case 0:
			body, err = rep.Marshal()
			contentType = report.ContentTypeJSON
		case 1:
			body, err = rep.MarshalBinary()
			contentType = report.ContentTypeBinary
		case 2:
			body, err = rep.Marshal()
			body = append(body, '\n')
			contentType, want = report.ContentTypeNDJSON, http.StatusOK
		case 3:
			body, _ = report.AppendBinaryFrame(nil, nil, rep)
			contentType, want = report.ContentTypeBinaryBatch, http.StatusOK
		}
		if err != nil {
			return err
		}
		resp, err := hc.Post(ts.URL+ReportPathV1, contentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("%s: status %d, want %d", contentType, resp.StatusCode, want)
		}
		return nil
	}

	concurrent, concurrentTS := build()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if err := post(concurrentTS, c, k); err != nil {
					t.Errorf("client %d report %d: %v", c, k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The reference never sees a staged body: the same reports, handed to an
	// engine as structs, one at a time.
	serial, _ := build()
	for c := 0; c < clients; c++ {
		for k := 0; k < perClient; k++ {
			if _, err := serial.HandleReport(stagedReport(fmt.Sprintf("staged-u%d", c), k)); err != nil {
				t.Fatalf("client %d report %d: %v", c, k, err)
			}
		}
	}

	got, err := concurrent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("state after %d concurrent clients differs from the same reports ingested serially (%d vs %d bytes)", clients, len(got), len(want))
	}
	if n := concurrent.Metrics().ReportsHandled; n != clients*perClient {
		t.Errorf("ReportsHandled = %d, want %d", n, clients*perClient)
	}
}
