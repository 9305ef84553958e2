package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/origin"
)

func TestRunLiveMetrics(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := engine.HandleReport(sampleReport()); err != nil {
			t.Fatal(err)
		}
	}
	engine.ModifyPage("u1", "/index.html", "<html></html>")
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-metrics", ts.URL + "/"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"status ok", "1 users",
		"reports handled", "3", "breaker trips",
		"report ingest", "page rewrite", "p99ms",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunLiveGuard(t *testing.T) {
	engine, err := core.NewEngine(nil, core.WithGuard(core.GuardConfig{TripThreshold: 2}))
	if err != nil {
		t.Fatal(err)
	}
	engine.QuarantineProvider("cdn.example.com")
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-guard", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"cdn.example.com", "open",
		"quarantined providers: cdn.example.com",
		"quarantined rules:     none",
		"canary activations", "rewrite panics",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunLiveGuardDisabled(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-guard", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "guard disabled") {
		t.Errorf("want 'guard disabled' notice, got:\n%s", out.String())
	}
}

func TestRunLiveMetricsUnreachable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-metrics", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable server: want error")
	}
}
