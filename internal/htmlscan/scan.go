// Package htmlscan is a minimal, dependency-free HTML and script scanner.
//
// Oak's rule matcher does not need a browser-grade DOM: per Section 4.2.2 of
// the paper it only needs to know whether a block of page text could have
// caused a connection to a given server ("connection dependency"). That
// requires three capabilities, all provided here:
//
//  1. extracting src/href attribute URLs from tags (direct inclusion),
//  2. extracting inline script bodies (programmatic URL construction), and
//  3. finding hostnames mentioned anywhere in free text (text match).
package htmlscan

import (
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
)

// TagRef is one resource reference found in markup.
type TagRef struct {
	// Tag is the lower-cased element name ("script", "img", "link", ...).
	Tag string
	// Attr is the attribute the URL came from ("src" or "href").
	Attr string
	// URL is the raw attribute value.
	URL string
}

// Host returns the hostname of the reference URL, or "" if not parseable or
// relative.
func (t TagRef) Host() string { return HostOf(t.URL) }

// HostOf extracts the lower-cased hostname from a URL string, tolerating
// scheme-relative ("//cdn.example/x") forms. It returns "" for relative or
// unparseable URLs.
func HostOf(raw string) string {
	raw = strings.TrimSpace(raw)
	if strings.HasPrefix(raw, "//") {
		raw = "http:" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// scans counts the text scans the package has run (ExtractRefs, InlineScripts
// and HostsInText, and so every extractor); tests read it through ScanCount
// to hold a caller to scanning each text once.
var scans atomic.Int64

// ScanCount returns how many text scans the package has run.
func ScanCount() int64 { return scans.Load() }

// The scanners below match what four regular expressions matched when the
// package used them, case-insensitive as they were:
//
//	tag        (?is)<([a-z][a-z0-9]*)\b([^>]*)>
//	attribute  (?is)\b(src|href)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))
//	script     (?is)<script\b([^>]*)>(.*?)</script>
//	host       (?i)\b(?:[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?\.)+[a-z]{2,}\b
//
// scan_test.go keeps them as the oracle a fuzz target holds the scanners to.
// Case folding makes [a-z] match ſ (U+017F) and K (U+212A, the Kelvin sign),
// which fold to s and k; \b is an ASCII word boundary, so those two are not
// word characters; \s is [\t\n\f\r ].

// letterAt returns the byte width of the rune at s[i] when it is one the
// folded [a-z] matches, 0 otherwise.
func letterAt(s string, i int) int {
	if i >= len(s) {
		return 0
	}
	switch c := s[i]; {
	case c|0x20 >= 'a' && c|0x20 <= 'z':
		return 1
	case c == 0xC5 && strings.HasPrefix(s[i+1:], "\xBF"): // ſ
		return 2
	case c == 0xE2 && strings.HasPrefix(s[i+1:], "\x84\xAA"): // K
		return 3
	}
	return 0
}

// alnumAt is letterAt for the folded [a-z0-9].
func alnumAt(s string, i int) int {
	if i < len(s) && s[i] >= '0' && s[i] <= '9' {
		return 1
	}
	return letterAt(s, i)
}

// isWordByte reports whether c is an ASCII word character, [0-9A-Za-z_]. A
// byte of a multi-byte rune, or of an invalid one, never is.
func isWordByte(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c|0x20 >= 'a' && c|0x20 <= 'z')
}

// boundary reports whether \b holds at s[i].
func boundary(s string, i int) bool {
	before := i > 0 && isWordByte(s[i-1])
	after := i < len(s) && isWordByte(s[i])
	return before != after
}

// isSpace reports whether c is in \s.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// foldAt returns the end of lit matched case-insensitively at s[i], -1 if it
// does not match there. lit is lower-case ASCII without a k; its s may be ſ.
func foldAt(s string, i int, lit string) int {
	for j := 0; j < len(lit); j++ {
		switch {
		case i < len(s) && s[i]|0x20 == lit[j] && lit[j] >= 'a' && lit[j] <= 'z':
			i++
		case i < len(s) && s[i] == lit[j]:
			i++
		case lit[j] == 's' && strings.HasPrefix(s[i:], "ſ"):
			i += len("ſ")
		default:
			return -1
		}
	}
	return i
}

// nextTag finds the first start tag at or after s[i]: its lower-cased name,
// its attribute blob and where it ends; ok is false when there is none.
func nextTag(s string, i int) (name, attrs string, end int, ok bool) {
	for {
		lt := strings.IndexByte(s[i:], '<')
		if lt < 0 {
			return "", "", 0, false
		}
		lt += i
		i = lt + 1
		if letterAt(s, i) == 0 {
			continue
		}
		// The name is the longest run of [a-z0-9] with a word boundary after it.
		nameEnd := -1
		for q := i; ; {
			w := alnumAt(s, q)
			if w == 0 {
				break
			}
			if q += w; boundary(s, q) {
				nameEnd = q
			}
		}
		if nameEnd < 0 {
			continue
		}
		gt := strings.IndexByte(s[nameEnd:], '>')
		if gt < 0 {
			return "", "", 0, false // no tag can close
		}
		gt += nameEnd
		return strings.ToLower(s[i:nameEnd]), s[nameEnd:gt], gt + 1, true
	}
}

// nextAttr finds the first src or href attribute at or after a[i]: its
// lower-cased name, its value (empty values included) and where it ends.
func nextAttr(a string, i int) (name, val string, end int, ok bool) {
	for p := i; p < len(a); p++ {
		if !boundary(a, p) {
			continue
		}
		n := foldAt(a, p, "src")
		if n < 0 {
			if n = foldAt(a, p, "href"); n < 0 {
				continue
			}
		}
		q := n
		for q < len(a) && isSpace(a[q]) {
			q++
		}
		if q == len(a) || a[q] != '=' {
			continue
		}
		v := q + 1
		for v < len(a) && isSpace(a[v]) {
			v++
		}
		if v == len(a) || a[v] == '>' {
			continue
		}
		if quote := a[v]; quote == '"' || quote == '\'' {
			if j := strings.IndexByte(a[v+1:], quote); j >= 0 {
				return strings.ToLower(a[p:n]), a[v+1 : v+1+j], v + 2 + j, true
			}
		}
		w := v
		for w < len(a) && !isSpace(a[w]) && a[w] != '>' {
			w++
		}
		return strings.ToLower(a[p:n]), a[v:w], w, true
	}
	return "", "", 0, false
}

// ExtractRefs returns every src/href resource reference in the document, in
// document order. Multiple URLs inside one tag (unusual but legal in broken
// markup) are all returned.
func ExtractRefs(html string) []TagRef {
	scans.Add(1)
	var refs []TagRef
	for i := 0; ; {
		tag, attrs, end, ok := nextTag(html, i)
		if !ok {
			return refs
		}
		i = end
		for j := 0; ; {
			attr, val, end, ok := nextAttr(attrs, j)
			if !ok {
				break
			}
			j = end
			if val != "" {
				refs = append(refs, TagRef{Tag: tag, Attr: attr, URL: val})
			}
		}
	}
}

// ExtractSrcHosts returns the set of distinct external-reference hostnames
// found in src/href attributes, lower-cased, in first-seen order.
func ExtractSrcHosts(html string) []string {
	return SrcHosts(ExtractRefs(html))
}

// SrcHosts returns the distinct hostnames of refs, lower-cased, in
// first-seen order.
func SrcHosts(refs []TagRef) []string {
	var hosts []string
	for _, ref := range refs {
		if h := ref.Host(); h != "" && !slices.Contains(hosts, h) {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// InlineScripts returns the bodies of all <script> elements without a src
// attribute — the scripts that may construct URLs programmatically.
func InlineScripts(html string) []string {
	scans.Add(1)
	var bodies []string
	for i := 0; ; {
		lt := strings.IndexByte(html[i:], '<')
		if lt < 0 {
			return bodies
		}
		lt += i
		i = lt + 1
		open := foldAt(html, i, "script")
		if open < 0 || (open < len(html) && isWordByte(html[open])) {
			continue
		}
		gt := strings.IndexByte(html[open:], '>')
		if gt < 0 {
			return bodies // no script can open
		}
		gt += open
		closeAt, closeEnd := -1, -1
		for j := gt + 1; closeAt < 0; {
			k := strings.Index(html[j:], "</")
			if k < 0 {
				return bodies // no script can close
			}
			if e := foldAt(html, j+k+2, "script>"); e >= 0 {
				closeAt, closeEnd = j+k, e
			}
			j += k + 1
		}
		i = closeEnd
		if _, _, _, ext := nextAttr(html[open:gt], 0); ext {
			continue // external script; body (if any) is inert
		}
		if body := strings.TrimSpace(html[gt+1 : closeAt]); body != "" {
			bodies = append(bodies, body)
		}
	}
}

// ScriptSrcs returns the src URLs of all external <script> elements.
func ScriptSrcs(html string) []string {
	return ScriptRefs(ExtractRefs(html))
}

// ContainsHost reports whether text mentions the given hostname anywhere —
// in markup, quoted strings, or concatenation fragments. This is the paper's
// second rule-activation condition: "Did traffic from the violating server
// include any domain names which appear in the default object text of the
// rule?". The match is case-insensitive and must fall on label boundaries so
// "cdn.example" does not match "badcdn.example".
func ContainsHost(text, host string) bool {
	if host == "" {
		return false
	}
	lower := strings.ToLower(text)
	host = strings.ToLower(host)
	idx := 0
	for {
		i := strings.Index(lower[idx:], host)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(host)
		beforeOK := start == 0 || !isHostChar(lower[start-1])
		afterOK := end == len(lower) || !isHostChar(lower[end])
		if beforeOK && afterOK {
			return true
		}
		idx = start + 1
	}
}

func isHostChar(c byte) bool {
	return c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// URLsInText extracts absolute http/https URLs from free text, in order of
// appearance, with trailing sentence punctuation trimmed. It is how the
// simulated client and the cache-hint builder discover the URLs a script
// body or rule fragment references.
func URLsInText(text string) []string {
	var urls []string
	i := 0
	for i < len(text) {
		j := indexURLStart(text[i:])
		if j < 0 {
			break
		}
		start := i + j
		end := start
		for end < len(text) && isURLChar(text[end]) {
			end++
		}
		urls = append(urls, strings.TrimRight(text[start:end], ".,;"))
		i = end
	}
	return urls
}

func indexURLStart(s string) int {
	h := strings.Index(s, "http://")
	hs := strings.Index(s, "https://")
	switch {
	case h < 0:
		return hs
	case hs < 0:
		return h
	case h < hs:
		return h
	default:
		return hs
	}
}

func isURLChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	return strings.IndexByte("-._~:/?#[]@!$&()*+,;=%", c) >= 0
}

// ScriptRefs returns the src URLs of refs' <script> elements.
func ScriptRefs(refs []TagRef) []string {
	var srcs []string
	for _, ref := range refs {
		if ref.Tag == "script" && ref.Attr == "src" {
			srcs = append(srcs, ref.URL)
		}
	}
	return srcs
}

// HostsInText returns all distinct hostnames mentioned in free text, in
// first-seen order, lower-cased: dot-separated labels ending in an
// alphabetic TLD, so bare words and decimal numbers don't match. Dotted names
// inside URL paths (e.g. the "x.js" of "http://host/x.js") are excluded: a
// match directly preceded by a single "/" is a path component, while "//"
// marks an authority and is kept.
func HostsInText(text string) []string {
	scans.Add(1)
	var hosts []string
	var dead map[int]bool // label starts from which no TLD matches (hostEnd)
	for i := 0; i < len(text); {
		w := alnumAt(text, i)
		if w == 0 {
			i++
			continue
		}
		end := -1
		if boundary(text, i) {
			end = hostEnd(text, i, &dead)
		}
		if end < 0 {
			i += w
			continue
		}
		if i == 0 || text[i-1] != '/' || (i >= 2 && text[i-2] == '/') { // not a path component
			if h := strings.ToLower(text[i:end]); !slices.Contains(hosts, h) {
				hosts = append(hosts, h)
			}
		}
		i = end
	}
	return hosts
}

// hostEnd returns where the host matched at s[start] ends, or -1. A label
// matches in at most one way, so the labels from start form a fixed chain;
// the TLD is tried after the most labels first, as the greedy + did. A label
// start the TLD failed after, and every one past it, fails for any later
// start whose chain reaches it: hostEnd marks those dead, so each is tried
// once and the scan stays linear.
func hostEnd(s string, start int, dead *map[int]bool) int {
	var buf [8]int
	chain := buf[:0]
	for p := start; ; {
		q := labelEnd(s, p)
		if q < 0 || (*dead)[q] {
			break
		}
		chain = append(chain, q)
		p = q
	}
	for j := len(chain) - 1; j >= 0; j-- {
		if e := tldEnd(s, chain[j]); e >= 0 {
			markDead(dead, chain[j+1:])
			return e
		}
	}
	markDead(dead, chain)
	return -1
}

func markDead(dead *map[int]bool, starts []int) {
	if len(starts) == 0 {
		return
	}
	if *dead == nil {
		*dead = make(map[int]bool)
	}
	for _, p := range starts {
		(*dead)[p] = true
	}
}

// labelEnd returns the end of the label and its dot at s[p], -1 if none
// matches: one [a-z0-9], or two to 63 whose first and last are [a-z0-9] and
// the rest [a-z0-9-].
func labelEnd(s string, p int) int {
	w := alnumAt(s, p)
	if w == 0 {
		return -1
	}
	q, runes, hyphen := p+w, 0, false
	for ; runes < 62; runes++ {
		if q < len(s) && s[q] == '-' {
			q, hyphen = q+1, true
		} else if w := alnumAt(s, q); w > 0 {
			q, hyphen = q+w, false
		} else {
			break
		}
	}
	if hyphen || q == len(s) || s[q] != '.' {
		return -1
	}
	return q + 1
}

// tldEnd returns the end of the longest run of two or more letters at s[p]
// with a word boundary after it, -1 if there is none.
func tldEnd(s string, p int) int {
	end := -1
	for n := 1; ; n++ {
		w := letterAt(s, p)
		if w == 0 {
			return end
		}
		if p += w; n >= 2 && boundary(s, p) {
			end = p
		}
	}
}
