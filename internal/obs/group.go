package obs

import "reflect"

// Read reads a metric group. A group is declared once, as a generic
// struct over its cell types: live is that struct over Counter (and Gauge),
// S the same struct over uint64 (and int64). Field i of the result holds
// field i of live's value. It walks the fields by reflection, so it belongs
// to a metrics read, never to the path that increments a cell.
func Read[S, L any](live *L) S {
	var s S
	sv, lv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(live).Elem()
	if sv.NumField() != lv.NumField() {
		panic("obs: " + sv.Type().String() + " is not a snapshot of " + lv.Type().String())
	}
	for i := 0; i < lv.NumField(); i++ {
		if sv.Type().Field(i).Name != lv.Type().Field(i).Name {
			panic("obs: " + sv.Type().String() + " is not a snapshot of " + lv.Type().String())
		}
		switch c := lv.Field(i).Addr().Interface().(type) {
		case *Counter:
			sv.Field(i).SetUint(c.Value())
		case *Gauge:
			sv.Field(i).SetInt(c.Value())
		}
	}
	return s
}
