package core

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"oak/internal/flagdoc"
	"oak/internal/obs"
	"oak/internal/rules"
)

// TestCounterGlossaryIsTheMetrics holds docs/OPERATIONS.md's counter
// glossary to Metrics both ways: every field has one row, and each row's
// first cell names fields only (a row may name several).
func TestCounterGlossaryIsTheMetrics(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flagdoc.Rows(string(doc), "How to read each counter (all monotone, per-process):")
	if err != nil {
		t.Fatal(err)
	}
	metrics := reflect.TypeOf(Metrics{})
	seen := map[string]int{}
	for _, r := range rows {
		names := regexp.MustCompile("`([^`]*)`").FindAllStringSubmatch(r.Flag, -1)
		if len(names) == 0 {
			t.Errorf("glossary row %q names no counter", r.Flag)
		}
		for _, m := range names {
			if _, ok := metrics.FieldByName(m[1]); !ok {
				t.Errorf("glossary row %q names %s, which is no field of Metrics", r.Flag, m[1])
			}
			seen[m[1]]++
		}
	}
	for i := 0; i < metrics.NumField(); i++ {
		if name := metrics.Field(i).Name; seen[name] != 1 {
			t.Errorf("Metrics.%s has %d glossary rows, want 1", name, seen[name])
		}
	}
}

// TestMetricsReadsEveryCell gives each live counter its own count and
// wants each back under its own name.
func TestMetricsReadsEveryCell(t *testing.T) {
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	live := reflect.ValueOf(&e.metrics).Elem()
	for i := 0; i < live.NumField(); i++ {
		live.Field(i).Addr().Interface().(*obs.Counter).Add(uint64(i + 1))
	}
	m := reflect.ValueOf(e.Metrics())
	for i := 0; i < m.NumField(); i++ {
		if got := m.Field(i).Uint(); got != uint64(i+1) {
			t.Errorf("%s = %d, want %d", m.Type().Field(i).Name, got, i+1)
		}
	}
}

func TestMetricsCountReportsAndActivations(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m != (Metrics{}) {
		t.Errorf("fresh engine metrics = %+v, want zero", m)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.ReportsHandled != 1 {
		t.Errorf("ReportsHandled = %d, want 1", m.ReportsHandled)
	}
	if m.EntriesProcessed != 5 {
		t.Errorf("EntriesProcessed = %d, want 5", m.EntriesProcessed)
	}
	if m.ViolationsDetected != 1 || m.RuleActivations != 1 {
		t.Errorf("violations/activations = %d/%d, want 1/1", m.ViolationsDetected, m.RuleActivations)
	}
}

func TestMetricsPageCounters(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	page := `<script src="http://s1.com/jquery.js">`

	// No activations yet: page untouched.
	e.ModifyPage("u1", "/", page)
	if m := e.Metrics(); m.PagesUntouched != 1 || m.PagesModified != 0 {
		t.Errorf("counters = %+v, want 1 untouched", m)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	e.ModifyPage("u1", "/", page)
	if m := e.Metrics(); m.PagesModified != 1 {
		t.Errorf("PagesModified = %d, want 1", m.PagesModified)
	}
}

func TestMetricsDeactivations(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	// Alternate turns far worse than the default was: history revert.
	if _, err := e.HandleReport(loadReport("u1", map[string]float64{
		"s2.net":    5000,
		"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	})); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.RuleDeactivations != 1 {
		t.Errorf("RuleDeactivations = %d, want 1", m.RuleDeactivations)
	}
}
