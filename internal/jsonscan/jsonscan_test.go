package jsonscan

import (
	"encoding/json"
	"testing"
)

// The report decoder's differential fuzzer pins the primitives through its
// schema; this one pins them bare, token by token: whatever a value scanner accepts,
// encoding/json reads from the same bytes to the same Go value.
func FuzzScannersAgreeWithJSON(f *testing.F) {
	for _, tok := range []string{
		`"plain"`, `""`, `"Zoë"`, `"aé\n\/"`, `"😀"`, "\"a\xffb\"", "\"a\tb\"", `"a\qb"`, `"open`,
		`"eight or more plain bytes"`, `"eight or more bytes, one ë"`, "\"\x7f\"",
		`0`, `-0`, `7`, `-12`, `01`, `1.0`, `1e2`, `9223372036854775807`, `9223372036854775808`,
		`0.30000000000000004`, `1.5e-3`, `1e999`, `-`, `1.`, `.5`, `true`, `false`, `tru`, `null`,
		`{"a":[1,"]}",{"b":"\\"}],"c":"\""} `, `[[],{}]`, `"a\\\"b"`,
	} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		// A token the scanner took, followed by nothing, is one JSON value.
		whole := func(d *Scanner) bool { return d.I == len(tok) }
		for name, scan := range map[string]func(*Scanner) ([]byte, bool){
			"ScanString": (*Scanner).ScanString, "scanPlainString": (*Scanner).scanPlainString,
		} {
			d := Scanner{Data: tok}
			if got, ok := scan(&d); ok && whole(&d) {
				var want string
				if err := json.Unmarshal(tok, &want); err != nil || want != string(got) {
					t.Fatalf("%s(%q) = %q; encoding/json: %q, %v", name, tok, got, want, err)
				}
			}
		}
		d := Scanner{Data: tok}
		if got, ok := d.ScanInt64(); ok && whole(&d) {
			var want int64
			if err := json.Unmarshal(tok, &want); err != nil || want != got {
				t.Fatalf("ScanInt64(%q) = %d; encoding/json: %d, %v", tok, got, want, err)
			}
		}
		d = Scanner{Data: tok}
		if got, ok := d.ScanFloat64(); ok && whole(&d) {
			var want float64
			if err := json.Unmarshal(tok, &want); err != nil || want != got {
				t.Fatalf("ScanFloat64(%q) = %v; encoding/json: %v, %v", tok, got, want, err)
			}
		}
		d = Scanner{Data: tok}
		if got, ok := d.ScanBool(); ok && whole(&d) {
			var want bool
			if err := json.Unmarshal(tok, &want); err != nil || want != got {
				t.Fatalf("ScanBool(%q) = %v; encoding/json: %v, %v", tok, got, want, err)
			}
		}
	})
}
