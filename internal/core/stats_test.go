package core

import (
	"reflect"
	"testing"
)

// TestStatsSubCoversEveryField fills every field of Stats with distinct
// values via reflection and asserts Sub subtracts all of them — the guard
// that keeps new counters from being silently dropped.
func TestStatsSubCoversEveryField(t *testing.T) {
	var a, b Stats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats field %s has kind %v; Sub only handles integer counters",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(1000 + 7*i))
		bv.Field(i).SetInt(int64(3 * i))
	}
	d := a.Sub(b)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		want := int64(1000+7*i) - int64(3*i)
		if got := dv.Field(i).Int(); got != want {
			t.Errorf("Sub dropped field %s: got %d, want %d",
				dv.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsCountersParity pins the field-for-field correspondence between
// Stats and its atomic backing store statsCounters: same field count, same
// names in the same order, and load copies every value. load itself panics
// on a statsCounters field missing from Stats; this test also catches the
// reverse direction (a Stats field with no atomic counterpart, which load
// would silently leave zero).
func TestStatsCountersParity(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	ct := reflect.TypeOf(statsCounters{})
	if st.NumField() != ct.NumField() {
		t.Fatalf("Stats has %d fields, statsCounters %d", st.NumField(), ct.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Name != ct.Field(i).Name {
			t.Errorf("field %d: Stats.%s vs statsCounters.%s",
				i, st.Field(i).Name, ct.Field(i).Name)
		}
	}
	var c statsCounters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*counter).Add(int64(1 + 13*i))
	}
	got := reflect.ValueOf(c.load())
	for i := 0; i < got.NumField(); i++ {
		if want := int64(1 + 13*i); got.Field(i).Int() != want {
			t.Errorf("load dropped field %s: got %d, want %d",
				got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}

// TestStatsAddCoversEveryField is the mirror guard for Add, which
// MultiContext.Stats uses to aggregate per-device counters: every field
// must sum, none silently dropped.
func TestStatsAddCoversEveryField(t *testing.T) {
	var a, b Stats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats field %s has kind %v; Add only handles integer counters",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(100 + 5*i))
		bv.Field(i).SetInt(int64(11 * i))
	}
	s := a.Add(b)
	sv := reflect.ValueOf(s)
	for i := 0; i < sv.NumField(); i++ {
		want := int64(100+5*i) + int64(11*i)
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("Add dropped field %s: got %d, want %d",
				sv.Type().Field(i).Name, got, want)
		}
	}
}
