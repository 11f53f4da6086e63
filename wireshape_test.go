package objinline_test

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"objinline"
)

// TestRecordWireShape pins the JSON keys of the measurement records the
// API, oic -json and oicd serialize. Each record is the internal type
// itself (vm.Counters, analysis.Stats, emit.RunStats, lower.PatchStats),
// so every field is set non-zero here: a counter added to one of them
// later reaches the wire only if it is deliberately tagged, and an
// internal one must say json:"-".
func TestRecordWireShape(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record any
		keys   []string
	}{
		{"Metrics", &objinline.Metrics{}, []string{
			"instructions", "cycles", "dereferences", "dyn_field_lookups", "dispatches",
			"static_calls", "calls", "heap_objects", "stack_objects", "arrays",
			"bytes_allocated", "cache_hits", "cache_misses"}},
		{"AnalysisStats", &objinline.AnalysisStats{}, []string{
			"reached_funcs", "method_contours", "obj_contours", "arr_contours", "passes",
			"contours_per_method", "work", "work.rounds", "work.contour_evals",
			"work.instr_evals", "work.partial_evals", "work.enqueues"}},
		{"NativeMetrics", &objinline.NativeMetrics{}, []string{
			"wall_nanos", "build_nanos", "reps", "mallocs", "alloc_bytes"}},
		{"IncrementalStats", &objinline.IncrementalStats{}, []string{
			"tier", "changed_funcs", "reused_funcs", "patched_funcs", "respliced_funcs",
			"analysis_reused", "analysis_instr_evals"}},
	} {
		fillNonZero(t, reflect.ValueOf(tc.record).Elem())
		b, err := json.Marshal(tc.record)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		collectKeys(json.NewDecoder(strings.NewReader(string(b))), "", &got)
		if !slices.Equal(got, tc.keys) {
			t.Errorf("%s keys\n got %q\nwant %q", tc.name, got, tc.keys)
		}
	}
}

// fillNonZero sets every field reachable from v to a non-zero value.
func fillNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillNonZero(t, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			fillNonZero(t, v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0))
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	default:
		t.Fatalf("fillNonZero: unhandled kind %s", v.Kind())
	}
}

// collectKeys appends the object keys of the next JSON value in
// document order, nested keys as "outer.inner".
func collectKeys(dec *json.Decoder, prefix string, keys *[]string) {
	tok, _ := dec.Token()
	switch tok {
	case json.Delim('{'):
		for dec.More() {
			k, _ := dec.Token()
			*keys = append(*keys, prefix+k.(string))
			collectKeys(dec, prefix+k.(string)+".", keys)
		}
		dec.Token()
	case json.Delim('['):
		for dec.More() {
			collectKeys(dec, prefix, keys)
		}
		dec.Token()
	}
}
