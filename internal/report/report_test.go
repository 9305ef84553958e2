package report

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func validReport() *Report {
	return &Report{
		UserID:            "u1",
		Page:              "/index.html",
		GeneratedAtUnixMs: 1700000000000,
		Entries: []Entry{
			{URL: "http://origin.example/index.html", ServerAddr: "10.0.0.1", SizeBytes: 2048, DurationMillis: 30, Kind: KindHTML},
			{URL: "http://cdn.example/app.js", ServerAddr: "10.0.0.2", SizeBytes: 10240, DurationMillis: 80, Kind: KindScript},
			{URL: "http://img.example/hero.jpg", ServerAddr: "10.0.0.3", SizeBytes: 500 * 1024, DurationMillis: 400, Kind: KindImage},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Report)
		want   error
	}{
		{"no user", func(r *Report) { r.UserID = "" }, ErrNoUserID},
		{"no entries", func(r *Report) { r.Entries = nil }, ErrNoEntries},
		{"overlong user", func(r *Report) { r.UserID = strings.Repeat("u", MaxBinaryStringLen+1) }, ErrOversized},
		{"overlong page", func(r *Report) { r.Page = strings.Repeat("p", MaxBinaryStringLen+1) }, ErrOversized},
		{"overlong server", func(r *Report) { r.Entries[2].ServerAddr = strings.Repeat("s", MaxBinaryStringLen+1) }, ErrOversized},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validReport()
			tt.mutate(r)
			if err := r.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestValidateEntryErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Report)
	}{
		{"empty url", func(r *Report) { r.Entries[1].URL = "" }},
		{"negative size", func(r *Report) { r.Entries[1].SizeBytes = -1 }},
		{"negative duration", func(r *Report) { r.Entries[1].DurationMillis = -5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validReport()
			tt.mutate(r)
			if err := r.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := validReport()
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != r.UserID || got.Page != r.Page || len(got.Entries) != len(r.Entries) {
		t.Errorf("round trip mismatch: got %+v", got)
	}
	if got.Entries[1].URL != r.Entries[1].URL || got.Entries[1].Kind != KindScript {
		t.Errorf("entry round trip mismatch: %+v", got.Entries[1])
	}
}

func TestUnmarshalBadJSON(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("Decode(bad) = nil error, want error")
	}
}

func TestEntryHelpers(t *testing.T) {
	e := Entry{URL: "http://cdn.example:8080/a/b.js", SizeBytes: 1000, DurationMillis: 500}
	if got := e.Host(); got != "cdn.example" {
		t.Errorf("Host() = %q, want cdn.example", got)
	}
	if !e.IsSmall() {
		t.Error("IsSmall() = false for 1000 bytes, want true")
	}
	if got := e.Duration(); got != 500*time.Millisecond {
		t.Errorf("Duration() = %v, want 500ms", got)
	}
	// 1000 bytes in 0.5 s = 2000 B/s.
	if got := e.ThroughputBps(); math.Abs(got-2000) > 1e-9 {
		t.Errorf("ThroughputBps() = %v, want 2000", got)
	}
}

func TestEntryBoundaries(t *testing.T) {
	small := Entry{SizeBytes: SmallObjectThreshold - 1}
	if !small.IsSmall() {
		t.Error("one byte under threshold should be small")
	}
	large := Entry{SizeBytes: SmallObjectThreshold}
	if large.IsSmall() {
		t.Error("at threshold should be large (paper: 'in excess of 50KB' uses throughput)")
	}
	zeroDur := Entry{SizeBytes: 100, DurationMillis: 0}
	if got := zeroDur.ThroughputBps(); got != 0 {
		t.Errorf("zero-duration throughput = %v, want 0", got)
	}
}

func TestPageLoadTime(t *testing.T) {
	r := validReport()
	if got := r.PageLoadTime(); got != 400*time.Millisecond {
		t.Errorf("PageLoadTime = %v, want 400ms", got)
	}
	empty := &Report{}
	if got := empty.PageLoadTime(); got != 0 {
		t.Errorf("empty PageLoadTime = %v, want 0", got)
	}
}

func TestTotalBytes(t *testing.T) {
	r := validReport()
	want := int64(2048 + 10240 + 500*1024)
	if got := r.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestExternalFraction(t *testing.T) {
	r := validReport()
	// origin.example is origin; cdn.example and img.example are external.
	got := r.ExternalFraction("origin.example")
	if math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("ExternalFraction = %v, want 2/3", got)
	}
}

func TestExternalFractionEmpty(t *testing.T) {
	empty := &Report{}
	if got := empty.ExternalFraction("x"); got != 0 {
		t.Errorf("empty ExternalFraction = %v, want 0", got)
	}
}

func TestIsExternalHost(t *testing.T) {
	tests := []struct {
		host, origin string
		want         bool
	}{
		{"cdn.example", "origin.example", true},
		{"origin.example", "origin.example", false},
		{"static.origin.example", "origin.example", false}, // subdomain
		{"ORIGIN.example", "origin.example", false},        // case-insensitive
		{"notorigin.example", "origin.example", true},      // suffix but not subdomain
		{"", "origin.example", false},
		{"cdn.example", "", false},
	}
	for _, tt := range tests {
		if got := IsExternalHost(tt.host, tt.origin); got != tt.want {
			t.Errorf("IsExternalHost(%q, %q) = %v, want %v", tt.host, tt.origin, got, tt.want)
		}
	}
}

func TestWireSize(t *testing.T) {
	r := validReport()
	n, err := r.WireSize()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := r.Marshal()
	if n != len(data) {
		t.Errorf("WireSize = %d, want %d", n, len(data))
	}
	if n == 0 || !strings.Contains(string(data), "entries") {
		t.Errorf("suspicious wire encoding: %q", data)
	}
}

func TestGeneratedAt(t *testing.T) {
	r := validReport()
	if got := r.GeneratedAt().UnixMilli(); got != r.GeneratedAtUnixMs {
		t.Errorf("GeneratedAt = %d, want %d", got, r.GeneratedAtUnixMs)
	}
}
