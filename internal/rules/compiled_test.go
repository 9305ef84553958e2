package rules

import (
	"reflect"
	"strings"
	"testing"
)

func equivCheck(t *testing.T, acts []Activation, path, page string) {
	t.Helper()
	wantOut, wantApplied := Apply(page, path, acts)
	a := NewApplier(acts, path)
	gotOut, gotApplied := a.Apply(page)
	if gotOut != wantOut {
		t.Errorf("compiled output diverges:\n got %q\nwant %q", gotOut, wantOut)
	}
	if !reflect.DeepEqual(gotApplied, wantApplied) {
		t.Errorf("compiled Applied diverges:\n got %+v\nwant %+v", gotApplied, wantApplied)
	}
}

func TestApplierBasicReplacement(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "jq", Type: TypeReplaceSame, Default: `<script src="http://s1.com/jquery.js">`,
			Alternatives: []string{`<script src="http://s2.net/jquery.js">`}, Scope: "*"}},
		{Rule: &Rule{ID: "px", Type: TypeRemove, Default: `<img src="http://tracker.example/pixel.gif">`, Scope: "*"}},
		{Rule: &Rule{ID: "ghost", Type: TypeRemove, Default: "never-on-page", Scope: "*"}},
	}
	a := NewApplier(acts, "/index.html")
	if !a.Fast() {
		t.Fatal("distinct HTML rules should compile to the fast path")
	}
	equivCheck(t, acts, "/index.html", applyPage)
}

func TestApplierNoMatchReturnsSameString(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "r", Type: TypeRemove, Default: "<blink>", Scope: "*"}},
	}
	a := NewApplier(acts, "/")
	out, applied := a.Apply(applyPage)
	if out != applyPage || applied != nil {
		t.Fatalf("no-op apply returned (%q, %+v)", out, applied)
	}
	// The returned string must be the original, not a copy.
	if allocs := testing.AllocsPerRun(100, func() {
		a.Apply(applyPage)
	}); allocs != 0 {
		t.Errorf("no-op Apply allocates %v times per call, want 0", allocs)
	}
}

func TestApplierEmptySet(t *testing.T) {
	a := NewApplier(nil, "/")
	out, applied := a.Apply(applyPage)
	if out != applyPage || applied != nil {
		t.Fatalf("empty applier returned (%q, %+v)", out, applied)
	}
}

func TestApplierScopeFiltering(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "scoped", Type: TypeRemove, Default: "tracker.example", Scope: "/checkout/*"}},
	}
	equivCheck(t, acts, "/index.html", applyPage)
	equivCheck(t, acts, "/checkout/cart", applyPage)
}

func TestApplierSubRulesFallBack(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "sub", Type: TypeReplaceAlt, Default: "AAA", Alternatives: []string{"BBB"},
			Scope: "*", SubRules: []SubRule{{Find: "x", Replace: "y"}}}},
	}
	a := NewApplier(acts, "/")
	if a.Fast() {
		t.Fatal("sub-rules must force the sequential fallback")
	}
	equivCheck(t, acts, "/", "xAAAx")
}

func TestApplierInterferingReplacementFallsBack(t *testing.T) {
	// Rule 2's replacement contains rule 1's default: sequential application
	// cascades (A→B then B→C yields C from A), which one pass cannot do.
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeReplaceAlt, Default: "A", Alternatives: []string{"B"}, Scope: "*"}},
		{Rule: &Rule{ID: "2", Type: TypeReplaceAlt, Default: "B", Alternatives: []string{"C"}, Scope: "*"}},
	}
	a := NewApplier(acts, "/")
	if a.Fast() {
		t.Fatal("pattern-in-replacement must force the sequential fallback")
	}
	equivCheck(t, acts, "/", "A")
	equivCheck(t, acts, "/", "AB")
}

func TestApplierJunctionCreatedMatch(t *testing.T) {
	// Removing "X" from "aXb" glues "ab" together, which rule 2 then
	// matches sequentially; the single pass must detect the junction and
	// fall back at apply time.
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeRemove, Default: "X", Scope: "*"}},
		{Rule: &Rule{ID: "2", Type: TypeReplaceAlt, Default: "ab", Alternatives: []string{"Q"}, Scope: "*"}},
	}
	equivCheck(t, acts, "/", "aXb")
	equivCheck(t, acts, "/", "aXb ab Xab aXb")
}

func TestApplierRuleOrderPriority(t *testing.T) {
	// "ABC" with rule 1 = "BC", rule 2 = "AB": sequentially rule 1 claims
	// "BC" first, leaving "A" unmatched for rule 2.
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeReplaceAlt, Default: "BC", Alternatives: []string{"x"}, Scope: "*"}},
		{Rule: &Rule{ID: "2", Type: TypeReplaceAlt, Default: "AB", Alternatives: []string{"y"}, Scope: "*"}},
	}
	equivCheck(t, acts, "/", "ABC")
	equivCheck(t, acts, "/", "ABAB ABC BCBC")
}

func TestApplierAdjacentReplacements(t *testing.T) {
	// Three rules landing adjacent replacements: output-scanning cannot
	// prove equivalence here; the proximity guard must fall back.
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeRemove, Default: "X", Scope: "*"}},
		{Rule: &Rule{ID: "2", Type: TypeReplaceAlt, Default: "ab", Alternatives: []string{"Q"}, Scope: "*"}},
		{Rule: &Rule{ID: "3", Type: TypeReplaceAlt, Default: "b", Alternatives: []string{"R"}, Scope: "*"}},
	}
	equivCheck(t, acts, "/", "aXb")
}

func TestApplierOverlappingSameRule(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeReplaceAlt, Default: "aa", Alternatives: []string{"b"}, Scope: "*"}},
	}
	equivCheck(t, acts, "/", "aaa")
	equivCheck(t, acts, "/", "aaaa")
	equivCheck(t, acts, "/", "aaaaa a aa")
}

func TestApplierManyRulesMixedBytes(t *testing.T) {
	// Rules with distinct first bytes exercise the general (non-oneByte)
	// scan path.
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeReplaceAlt, Default: "alpha", Alternatives: []string{"ALPHA"}, Scope: "*"}},
		{Rule: &Rule{ID: "2", Type: TypeRemove, Default: "beta-block", Scope: "*"}},
		{Rule: &Rule{ID: "3", Type: TypeReplaceAlt, Default: "gamma", Alternatives: []string{"GG"}, Scope: "*"}},
	}
	a := NewApplier(acts, "/")
	if !a.Fast() {
		t.Fatal("expected fast path")
	}
	if a.s.oneByte {
		t.Fatal("expected general scan (distinct first bytes)")
	}
	equivCheck(t, acts, "/", "some alpha, one beta-block, then gamma gamma alpha")
	equivCheck(t, acts, "/", "nothing here")
}

func TestApplierCandidateOverflowFallsBack(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "1", Type: TypeReplaceAlt, Default: "a", Alternatives: []string{"b"}, Scope: "*"}},
	}
	page := strings.Repeat("a", maxCandidates+10)
	equivCheck(t, acts, "/", page)
}

func TestApplierConcurrentUse(t *testing.T) {
	acts := []Activation{
		{Rule: &Rule{ID: "jq", Type: TypeReplaceSame, Default: `<script src="http://s1.com/jquery.js">`,
			Alternatives: []string{`<script src="http://s2.net/jquery.js">`}, Scope: "*"}},
		{Rule: &Rule{ID: "px", Type: TypeRemove, Default: `<img src="http://tracker.example/pixel.gif">`, Scope: "*"}},
	}
	a := NewApplier(acts, "/")
	want, _ := Apply(applyPage, "/", acts)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				got, _ := a.Apply(applyPage)
				if got != want {
					t.Error("concurrent Apply diverged")
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// FuzzApplyEquivalence asserts the compiled single-pass applier is
// byte-identical — output and Applied records — to the sequential reference
// Apply for arbitrary pages and rule sets, and so is the index arm: one
// Scanner over the whole rule set (plus a rule never activated, whose
// default overlaps the others), one Index of the page, and a Resolve for
// every subset of the activations, whose segments must concatenate to
// Apply's output, sum to the splice's Length and carry Apply's hint. The
// corpus seeds the shapes compiled.go guards against: cascades (a
// replacement containing another rule's default), junction-created matches,
// rule-order priority, adjacent (interacting) replacements, sub-rules,
// overlapping defaults and candidate overflow.
func FuzzApplyEquivalence(f *testing.F) {
	f.Add("aXb", "X", "", "ab", "Q", "b", "R", uint8(0), uint8(0))
	f.Add("A", "A", "B", "B", "C", "", "", uint8(0), uint8(0))
	f.Add("ABC", "BC", "x", "AB", "y", "", "", uint8(0), uint8(0))
	f.Add("aaaa", "aa", "b", "", "", "", "", uint8(0), uint8(0))
	f.Add(applyPage, `<img src="http://tracker.example/pixel.gif">`, "",
		`<script src="http://s1.com/jquery.js">`, `<script src="http://s2.net/jquery.js">`, "", "", uint8(1), uint8(0))
	f.Add("aXb ab", "X", "", "ab", "", "ba", "Z", uint8(7), uint8(0))
	f.Add("xyxyxy", "xy", "yx", "yx", "xy", "x", "", uint8(3), uint8(0))
	// Sub-rules: r1 carries one, so every set holding it falls back.
	f.Add("xAAAx", "AAA", "BBB", "x", "y", "", "", uint8(0), uint8(1))
	// A replacement containing another rule's default, which the page lacks.
	f.Add("<a> <b>", "<a>", "<c><b>", "<c>", "<d>", "<b>", "", uint8(4), uint8(0))
	// Junction windows: a removal gluing a later rule's default together.
	f.Add("aXb ab Xab aXb", "X", "", "ab", "Q", "", "", uint8(1), uint8(0))
	// Interacting replacements closer than the longest default.
	f.Add("aXbb", "X", "", "ab", "Q", "bb", "R", uint8(1), uint8(0))
	// Overlapping defaults, and the extra rule spanning two of them.
	f.Add("<script><img>", "<script>", "<s2>", "<img>", "<i2>", "ript><im", "", uint8(0), uint8(0))
	// Candidate overflow.
	f.Add(strings.Repeat("a", maxCandidates+10), "a", "b", "aa", "c", "", "", uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, page, p1, r1, p2, r2, p3, r3 string, bits, more uint8) {
		mkRule := func(id, pat, rep string, typeBit, scopeBit bool) *Rule {
			if pat == "" {
				return nil
			}
			typ := TypeReplaceAlt
			if typeBit {
				typ = TypeRemove
				rep = ""
			}
			scope := "*"
			if scopeBit {
				scope = "/checkout/*"
			}
			var alts []string
			if rep != "" {
				alts = []string{rep}
			}
			return &Rule{ID: id, Type: typ, Default: pat, Alternatives: alts, Scope: scope}
		}
		var acts []Activation
		if r := mkRule("r1", p1, r1, bits&1 != 0, bits&8 != 0); r != nil {
			if more&1 != 0 {
				r.SubRules = []SubRule{{Find: p2, Replace: r3}}
			}
			acts = append(acts, Activation{Rule: r})
		}
		if r := mkRule("r2", p2, r2, bits&2 != 0, bits&16 != 0); r != nil {
			acts = append(acts, Activation{Rule: r, AltIndex: int(bits >> 6)})
		}
		if r := mkRule("r3", p3, r3, bits&4 != 0, bits&32 != 0); r != nil {
			acts = append(acts, Activation{Rule: r})
		}
		path := "/index.html"
		if bits&64 != 0 {
			path = "/checkout/cart"
		}
		wantOut, wantApplied := Apply(page, path, acts)
		a := NewApplier(acts, path)
		gotOut, gotApplied := a.Apply(page)
		if gotOut != wantOut {
			t.Fatalf("output diverges (fast=%v):\npage %q\n got %q\nwant %q", a.Fast(), page, gotOut, wantOut)
		}
		if !reflect.DeepEqual(gotApplied, wantApplied) {
			t.Fatalf("Applied diverges (fast=%v):\npage %q\n got %+v\nwant %+v", a.Fast(), page, gotApplied, wantApplied)
		}

		// The index arm: the rule set fixed once, the page indexed once.
		set := []*Rule{{ID: "r0", Type: TypeRemove, Default: p1 + p2, Scope: "*"}}
		for _, act := range acts {
			set = append(set, act.Rule)
		}
		x := NewScanner(set).Index(page)
		for mask := 0; mask < 1<<len(acts); mask++ {
			var sub []Activation
			for i, act := range acts {
				if mask&(1<<i) != 0 {
					sub = append(sub, act)
				}
			}
			want, wantApplied := Apply(page, path, sub)
			sp := x.Resolve(sub, path)
			got := page
			if sp.Segments != nil {
				got = strings.Join(sp.Segments, "")
				if sp.Length != len(got) {
					t.Fatalf("mask %d: Length %d, segments sum to %d", mask, sp.Length, len(got))
				}
			}
			if got != want {
				t.Fatalf("mask %d: splice diverges (sequential=%v):\npage %q\n got %q\nwant %q", mask, sp.Sequential, page, got, want)
			}
			if !reflect.DeepEqual(sp.Applied, wantApplied) || sp.Hint != CacheHintValue(wantApplied) {
				t.Fatalf("mask %d: splice Applied diverges:\n got %+v (hint %q)\nwant %+v", mask, sp.Applied, sp.Hint, wantApplied)
			}
			if sp.Segments != nil && !sp.Changed && got != page {
				t.Fatalf("mask %d: Changed = false for %q → %q", mask, page, got)
			}
		}
	})
}
