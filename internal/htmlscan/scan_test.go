package htmlscan

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const samplePage = `<!DOCTYPE html>
<html>
<head>
  <link rel="stylesheet" href="http://static.example/site.css">
  <script src="http://s1.com/jquery.js"></script>
  <script>
    var base = "http://tracker.example";
    load(base + "/pixel.gif");
  </script>
</head>
<body>
  <IMG SRC='http://img.example/hero.jpg'>
  <img src=//proto.example/rel.png>
  <a href="/local/page.html">local</a>
  <script src="https://ads.example/ad.js" async></script>
</body>
</html>`

func TestExtractRefs(t *testing.T) {
	refs := ExtractRefs(samplePage)
	var urls []string
	for _, r := range refs {
		urls = append(urls, r.URL)
	}
	want := []string{
		"http://static.example/site.css",
		"http://s1.com/jquery.js",
		"http://img.example/hero.jpg",
		"//proto.example/rel.png",
		"/local/page.html",
		"https://ads.example/ad.js",
	}
	if !reflect.DeepEqual(urls, want) {
		t.Errorf("ExtractRefs urls = %v, want %v", urls, want)
	}
}

func TestExtractRefsTagsAndAttrs(t *testing.T) {
	refs := ExtractRefs(`<SCRIPT SRC="http://a.example/x.js"></SCRIPT>`)
	if len(refs) != 1 {
		t.Fatalf("got %d refs, want 1", len(refs))
	}
	if refs[0].Tag != "script" || refs[0].Attr != "src" {
		t.Errorf("ref = %+v, want lowercase script/src", refs[0])
	}
}

func TestExtractSrcHosts(t *testing.T) {
	hosts := ExtractSrcHosts(samplePage)
	want := []string{"static.example", "s1.com", "img.example", "proto.example", "ads.example"}
	if !reflect.DeepEqual(hosts, want) {
		t.Errorf("ExtractSrcHosts = %v, want %v", hosts, want)
	}
}

func TestExtractSrcHostsDedupes(t *testing.T) {
	html := `<img src="http://a.example/1.png"><img src="http://a.example/2.png">`
	hosts := ExtractSrcHosts(html)
	if !reflect.DeepEqual(hosts, []string{"a.example"}) {
		t.Errorf("hosts = %v, want [a.example]", hosts)
	}
}

func TestInlineScripts(t *testing.T) {
	bodies := InlineScripts(samplePage)
	if len(bodies) != 1 {
		t.Fatalf("got %d inline scripts, want 1: %v", len(bodies), bodies)
	}
	if !ContainsHost(bodies[0], "tracker.example") {
		t.Errorf("inline script body missing tracker.example: %q", bodies[0])
	}
}

func TestInlineScriptsSkipsExternal(t *testing.T) {
	html := `<script src="http://x.example/a.js">leftover body</script>`
	if got := InlineScripts(html); len(got) != 0 {
		t.Errorf("InlineScripts = %v, want none for external script", got)
	}
}

func TestScriptSrcs(t *testing.T) {
	srcs := ScriptSrcs(samplePage)
	want := []string{"http://s1.com/jquery.js", "https://ads.example/ad.js"}
	if !reflect.DeepEqual(srcs, want) {
		t.Errorf("ScriptSrcs = %v, want %v", srcs, want)
	}
}

func TestHostOf(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"http://CDN.Example:8080/x", "cdn.example"},
		{"//proto.example/y", "proto.example"},
		{"/relative/path", ""},
		{"not a url at all \x00", ""},
		{"https://a.b.c.example/z?q=1", "a.b.c.example"},
	}
	for _, tt := range tests {
		if got := HostOf(tt.in); got != tt.want {
			t.Errorf("HostOf(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestContainsHost(t *testing.T) {
	tests := []struct {
		name string
		text string
		host string
		want bool
	}{
		{"in tag", `<script src="http://s1.com/jquery.js">`, "s1.com", true},
		{"in js string concat", `var u = "http://" + "track.example" + "/p.gif"`, "track.example", true},
		{"case insensitive", `SRC="HTTP://CDN.EXAMPLE/x"`, "cdn.example", true},
		{"absent", `<img src="http://other.example/x">`, "cdn.example", false},
		{"no partial-label match", `http://badcdn.example/x`, "cdn.example", false},
		{"no prefix match", `http://cdn.example.evil.com/x`, "cdn.example", false},
		{"boundary at punctuation ok", `load('cdn.example')`, "cdn.example", true},
		{"empty host", "anything", "", false},
		{"second occurrence matches", `xcdn.example then cdn.example`, "cdn.example", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ContainsHost(tt.text, tt.host); got != tt.want {
				t.Errorf("ContainsHost(%q, %q) = %v, want %v", tt.text, tt.host, got, tt.want)
			}
		})
	}
}

func TestHostsInText(t *testing.T) {
	text := `fetch("http://a.example/x"); var h = 'b.example'; // a.example again; 3.14 not a host`
	hosts := HostsInText(text)
	want := []string{"a.example", "b.example"}
	if !reflect.DeepEqual(hosts, want) {
		t.Errorf("HostsInText = %v, want %v", hosts, want)
	}
}

func TestHostsInTextIgnoresNumbers(t *testing.T) {
	if got := HostsInText("version 1.2 costs 3.50"); len(got) != 0 {
		t.Errorf("HostsInText(numbers) = %v, want none", got)
	}
}

func TestURLsInText(t *testing.T) {
	text := `a http://one.example/x.js b https://two.example/y?q=1 c`
	got := URLsInText(text)
	want := []string{"http://one.example/x.js", "https://two.example/y?q=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("URLsInText = %v, want %v", got, want)
	}
}

func TestURLsInTextTrailingPunctuation(t *testing.T) {
	got := URLsInText(`see http://a.example/p.`)
	if !reflect.DeepEqual(got, []string{"http://a.example/p"}) {
		t.Errorf("URLsInText = %v", got)
	}
}

func TestURLsInTextQuoted(t *testing.T) {
	got := URLsInText(`oakFetch("http://h.example/a.js");`)
	if !reflect.DeepEqual(got, []string{"http://h.example/a.js"}) {
		t.Errorf("URLsInText = %v", got)
	}
}

func TestURLsInTextNone(t *testing.T) {
	if got := URLsInText("no urls here"); got != nil {
		t.Errorf("URLsInText = %v, want nil", got)
	}
}

func TestEmptyDocument(t *testing.T) {
	if got := ExtractRefs(""); got != nil {
		t.Errorf("ExtractRefs(\"\") = %v, want nil", got)
	}
	if got := InlineScripts(""); got != nil {
		t.Errorf("InlineScripts(\"\") = %v, want nil", got)
	}
	if got := HostsInText(""); got != nil {
		t.Errorf("HostsInText(\"\") = %v, want nil", got)
	}
}

func TestMultilineInlineScript(t *testing.T) {
	html := "<script>\nline1();\nvar x = 'deep.example';\nline3();\n</script>"
	bodies := InlineScripts(html)
	if len(bodies) != 1 {
		t.Fatalf("got %d bodies, want 1", len(bodies))
	}
	if !ContainsHost(bodies[0], "deep.example") {
		t.Error("multiline script body lost content")
	}
}

func TestExtractRefsAcrossNewlines(t *testing.T) {
	html := "<img\n  class=\"hero\"\n  src=\"http://multi.example/x.png\"\n>"
	refs := ExtractRefs(html)
	if len(refs) != 1 || refs[0].URL != "http://multi.example/x.png" {
		t.Errorf("multiline tag refs = %+v", refs)
	}
}

func TestExtractRefsUnquotedAttr(t *testing.T) {
	refs := ExtractRefs(`<img src=http://bare.example/x.png>`)
	if len(refs) != 1 || refs[0].URL != "http://bare.example/x.png" {
		t.Errorf("bare attr refs = %+v", refs)
	}
}

func TestExtractRefsSingleQuotes(t *testing.T) {
	refs := ExtractRefs(`<script src='http://sq.example/a.js'></script>`)
	if len(refs) != 1 || refs[0].URL != "http://sq.example/a.js" {
		t.Errorf("single-quote refs = %+v", refs)
	}
}

func TestHostOfUppercaseScheme(t *testing.T) {
	if got := HostOf("HTTP://UPPER.EXAMPLE/x"); got != "upper.example" {
		t.Errorf("HostOf uppercase = %q", got)
	}
}

func TestInlineScriptsMultipleBlocks(t *testing.T) {
	html := `<script>one("a.example")</script><p></p><script>two("b.example")</script>`
	bodies := InlineScripts(html)
	if len(bodies) != 2 {
		t.Fatalf("got %d bodies, want 2", len(bodies))
	}
}

func TestContainsHostUnicodePage(t *testing.T) {
	text := "日本語テキスト <img src=\"http://jp.example/画像.png\"> 終わり"
	if !ContainsHost(text, "jp.example") {
		t.Error("host not found amid unicode text")
	}
}

// The regular expressions the scanners replaced: the oracle they are fuzzed
// against.
var (
	oracleTag    = regexp.MustCompile(`(?is)<([a-z][a-z0-9]*)\b([^>]*)>`)
	oracleAttr   = regexp.MustCompile(`(?is)\b(src|href)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))`)
	oracleScript = regexp.MustCompile(`(?is)<script\b([^>]*)>(.*?)</script>`)
	oracleHost   = regexp.MustCompile(`(?i)\b(?:[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?\.)+[a-z]{2,}\b`)
)

func oracleExtractRefs(html string) []TagRef {
	var refs []TagRef
	for _, m := range oracleTag.FindAllStringSubmatch(html, -1) {
		for _, am := range oracleAttr.FindAllStringSubmatch(m[2], -1) {
			if val := am[2] + am[3] + am[4]; val != "" { // at most one is set
				refs = append(refs, TagRef{Tag: strings.ToLower(m[1]), Attr: strings.ToLower(am[1]), URL: val})
			}
		}
	}
	return refs
}

func oracleExtractSrcHosts(html string) []string {
	seen := make(map[string]bool)
	var hosts []string
	for _, ref := range oracleExtractRefs(html) {
		if h := ref.Host(); h != "" && !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts
}

func oracleInlineScripts(html string) []string {
	var bodies []string
	for _, m := range oracleScript.FindAllStringSubmatch(html, -1) {
		if oracleAttr.MatchString(m[1]) {
			continue
		}
		if body := strings.TrimSpace(m[2]); body != "" {
			bodies = append(bodies, body)
		}
	}
	return bodies
}

func oracleScriptSrcs(html string) []string {
	var srcs []string
	for _, ref := range oracleExtractRefs(html) {
		if ref.Tag == "script" && ref.Attr == "src" {
			srcs = append(srcs, ref.URL)
		}
	}
	return srcs
}

func oracleHostsInText(text string) []string {
	seen := make(map[string]bool)
	var hosts []string
	for _, loc := range oracleHost.FindAllStringIndex(text, -1) {
		start, end := loc[0], loc[1]
		if start >= 1 && text[start-1] == '/' && (start < 2 || text[start-2] != '/') {
			continue
		}
		if h := strings.ToLower(text[start:end]); !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// agreeWithOracle fails t when any of the five extractors reads s otherwise
// than the regular expressions did.
func agreeWithOracle(t *testing.T, s string) {
	t.Helper()
	if got, want := ExtractRefs(s), oracleExtractRefs(s); !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractRefs(%q) = %q, regexp %q", s, got, want)
	}
	if got, want := ExtractSrcHosts(s), oracleExtractSrcHosts(s); !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractSrcHosts(%q) = %q, regexp %q", s, got, want)
	}
	if got, want := InlineScripts(s), oracleInlineScripts(s); !reflect.DeepEqual(got, want) {
		t.Errorf("InlineScripts(%q) = %q, regexp %q", s, got, want)
	}
	if got, want := ScriptSrcs(s), oracleScriptSrcs(s); !reflect.DeepEqual(got, want) {
		t.Errorf("ScriptSrcs(%q) = %q, regexp %q", s, got, want)
	}
	if got, want := HostsInText(s), oracleHostsInText(s); !reflect.DeepEqual(got, want) {
		t.Errorf("HostsInText(%q) = %q, regexp %q", s, got, want)
	}
}

// scannerSeeds are texts at the edges of the regular expressions: folded
// letters (ſ and K match s and k but are not word characters), boundaries,
// quotes that do not close, labels of 63 and 64 runes, chains whose TLD
// fails after the last label.
var scannerSeeds = []string{
	samplePage,
	`<script src="http://s1.com/jquery.js"></script>`,
	`<ſcript ſrc="http://a.example/x.js"></ſcript><script>var u = "b.example"</SCRİPT></script>`,
	`<a_b href=x><aſ href=y><aK src='z'><img data-src=q.png xsrc=r>`,
	`<img src= "unterminated src=next>`, `<img src='a' href="" src=>`, "<img src=\v\"x\">",
	"<p\nsrc\t=\n'multi\nline'>", `<script>a</script ><script src=x>b</script>`,
	`<script-x>c("d.example")</script>`, `<scripts>e</script>`, `<script`,
	"a.b.c.1 3.14 x.y.zz foo.bar_ baz.qux- a-.b.cc -a.bb a.-b.cc",
	"xn--bcher-kva.example ſub.example Kelvin.Kom aſ.cc a.ccſ a.ccK_ _a.cc",
	strings.Repeat("a", 63) + ".com " + strings.Repeat("b", 64) + ".com " + strings.Repeat("c-", 31) + "c.org",
	"http://x.example/path/y.js //z.example/w /v.example",
	strings.Repeat("a.", 40) + "1 " + strings.Repeat("q-", 40) + "r.st",
	"日本語 <img src=\"http://jp.example/画像.png\"> \xff\xfe.example \xe2\x84 .cc",
}

func TestScannersAgreeWithRegexps(t *testing.T) {
	for _, s := range scannerSeeds {
		agreeWithOracle(t, s)
	}
}

// FuzzScannersAgreeWithRegexps holds ExtractRefs, ExtractSrcHosts,
// InlineScripts, ScriptSrcs and HostsInText to the regular expressions they
// replaced, on any text.
func FuzzScannersAgreeWithRegexps(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	f.Fuzz(agreeWithOracle)
}
