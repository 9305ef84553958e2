package gateway_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
)

// fillDistinct sets every number, bool and string reachable from v to a
// value no other field holds: numbers count up from *n, a nil pointer gets a
// filled struct, a slice one filled element. Fields of embedded structs are
// reached in place, so a group embedded where its fields stood is walked in
// the same order as the fields.
func fillDistinct(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() || v.Type().Field(i).Anonymous {
				fillDistinct(f, n)
			}
		}
		return
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), n)
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(v.Index(0), n)
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + string(rune('a'+*n%26)))
	}
}

// TestMetricsJSONIsTheParents holds the metrics bodies to goldens encoded
// before each metric group became one generic declaration: with every
// counter, gauge and other field distinct, the names, their order and the
// values read back are the same bytes.
func TestMetricsJSONIsTheParents(t *testing.T) {
	for name, v := range map[string]any{
		"core_metrics.json":            &core.Metrics{},
		"origin_metrics.json":          &origin.MetricsResponse{},
		"gateway_cluster_metrics.json": &gateway.ClusterMetricsResponse{},
	} {
		n := 0
		fillDistinct(reflect.ValueOf(v).Elem(), &n)
		got, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: encoding differs from the golden:\n%s", name, got)
		}
	}
}
