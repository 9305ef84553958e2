package gateway

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"oak/internal/flagdoc"
	"oak/internal/origin"
)

// TestHTTPSurfaceTableNamesEveryRoute: OPERATIONS.md's "HTTP surface" table
// has a row for every *PathV1 constant of origin and the gateway, and every
// /oak/v1/ route it lists is one of them.
func TestHTTPSurfaceTableNamesEveryRoute(t *testing.T) {
	defined := map[string]string{} // route → constant
	for _, dir := range []string{"../origin", "."} {
		for name, route := range pathConstants(t, dir) {
			defined[route] = name
		}
	}
	if len(defined) == 0 {
		t.Fatal("no *PathV1 constants found")
	}
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flagdoc.Rows(string(doc), "## HTTP surface")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, r := range rows {
		route := strings.Trim(r.Flag, "`")
		if !strings.HasPrefix(route, origin.V1Prefix+"/") {
			continue
		}
		listed[route] = true
		if defined[route] == "" {
			t.Errorf("the HTTP surface table lists %s, which no *PathV1 constant defines", route)
		}
	}
	for route, name := range defined {
		if !listed[route] {
			t.Errorf("%s (%s) has no row in OPERATIONS.md's HTTP surface table", name, route)
		}
	}
}

// pathConstants returns the *PathV1 constants the non-test Go files in dir
// declare, by name, with their values: string literals joined by +, and
// V1Prefix (qualified or not) standing for origin.V1Prefix.
func pathConstants(t *testing.T, dir string) map[string]string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var eval func(ast.Expr) string
	eval = func(x ast.Expr) string {
		switch x := x.(type) {
		case *ast.BasicLit:
			if s, err := strconv.Unquote(x.Value); err == nil {
				return s
			}
		case *ast.Ident:
			if x.Name == "V1Prefix" {
				return origin.V1Prefix
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "V1Prefix" {
				return origin.V1Prefix
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				return eval(x.X) + eval(x.Y)
			}
		}
		t.Fatalf("%s: cannot evaluate a path constant's %T", dir, x)
		return ""
	}
	out := map[string]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if strings.HasSuffix(name.Name, "PathV1") {
							out[name.Name] = eval(vs.Values[i])
						}
					}
				}
			}
		}
	}
	return out
}

// TestCounterGlossaryIsTheGatewayMetrics holds OPERATIONS.md's gateway
// counter glossary to the gateway's counter declarations both ways: each
// row names only fields of gatewayCounters, connCounters (under
// backend_conns) and edgeCells (under edge_cache), by the JSON name
// GET /oak/v1/metrics shows, and each field has exactly one row.
func TestCounterGlossaryIsTheGatewayMetrics(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flagdoc.Rows(string(doc), "How to read each gateway counter (per-process; under `gateway` in `GET /oak/v1/metrics`):")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{} // JSON name, its block's prefixed → rows
	for _, group := range []struct {
		prefix string
		typ    reflect.Type
	}{
		{"", reflect.TypeOf(gatewayCounters[uint64]{})},
		{"backend_conns.", reflect.TypeOf(connCounters[uint64]{})},
		{"edge_cache.", reflect.TypeOf(edgeCells[uint64, int64]{})},
	} {
		for i := 0; i < group.typ.NumField(); i++ {
			seen[group.prefix+group.typ.Field(i).Tag.Get("json")] = 0
		}
	}
	for _, r := range rows {
		names := regexp.MustCompile("`([^`]*)`").FindAllStringSubmatch(r.Flag, -1)
		if len(names) == 0 {
			t.Errorf("glossary row %q names no counter", r.Flag)
		}
		for _, m := range names {
			if _, ok := seen[m[1]]; !ok {
				t.Errorf("glossary row %q names %s, which is no gateway counter", r.Flag, m[1])
				continue
			}
			seen[m[1]]++
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("gateway counter %s has %d glossary rows, want 1", name, n)
		}
	}
}
