package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"oak/internal/bodybuf"
)

// zeros is an endless source of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// declareOver answers a body of limit+1 bytes, declared as such, streamed
// until the reader hangs up.
func declareOver(w http.ResponseWriter, limit int64) {
	w.Header().Set("Content-Length", fmt.Sprint(limit+1))
	_, _ = io.CopyN(w, zeros{}, limit+1)
}

// TestOversizeObjectIsAFailedEntry: a provider object one byte over the
// client's object bound becomes a failed entry carrying the time spent on
// it, as a dead provider does, without a retry; the rest of the page loads.
func TestOversizeObjectIsAFailedEntry(t *testing.T) {
	var bigHits atomic.Int32
	content := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/big.bin" {
			bigHits.Add(1)
			declareOver(w, maxObjectBytes)
			return
		}
		_, _ = w.Write(make([]byte, 100))
	}))
	defer content.Close()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `<img src="http://big.example/big.bin"><img src="http://small.example/s.bin">`)
	}))
	defer origin.Close()

	c := &HTTPClient{Resolve: staticResolver(content)}
	res, _, err := c.LoadPage(origin.URL, "/")
	if err != nil {
		t.Fatalf("page load failed: %v", err)
	}
	if len(res.Report.Entries) != 2 {
		t.Fatalf("entries = %+v, want 2", res.Report.Entries)
	}
	big, small := res.Report.Entries[0], res.Report.Entries[1]
	if !big.Failed || big.SizeBytes != 0 || big.DurationMillis <= 0 {
		t.Errorf("oversize object entry = %+v, want failed with the time spent", big)
	}
	if small.Failed || small.SizeBytes != 100 {
		t.Errorf("small object entry = %+v, want 100 bytes fetched", small)
	}
	if n := bigHits.Load(); n != 1 {
		t.Errorf("oversize object fetched %d times, want once", n)
	}
}

// TestOversizePageAndAnswerFail: a page over the object bound fails the
// load, and a submission answer over the answer bound fails the submission,
// each without a retry.
func TestOversizePageAndAnswerFail(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.Method == http.MethodGet {
			declareOver(w, maxObjectBytes)
			return
		}
		declareOver(w, maxAnswerBytes)
	}))
	defer ts.Close()

	c := &HTTPClient{Resolve: staticResolver(ts)}
	if _, _, err := c.LoadPage(ts.URL, "/"); !errors.Is(err, bodybuf.ErrTooLarge) {
		t.Errorf("oversize page: err = %v, want bodybuf.ErrTooLarge", err)
	}
	res, err := c.SubmitBytes(context.Background(), ts.URL+reportPathV1, "application/json", []byte(`{}`), nil)
	if !errors.Is(err, bodybuf.ErrTooLarge) || res != nil {
		t.Errorf("oversize answer: a result %t, err %v; want no result and bodybuf.ErrTooLarge", res != nil, err)
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("server saw %d requests, want 2 (no retries)", n)
	}
}
