package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// specRejects is TestSpecRejects's table (and FuzzSpecJSON's rejected
// seeds): a body that breaks one rule, and what the 400 must name.
var specRejects = []struct{ body, want string }{
	{`{"classes":-1}`, "classes -1 out of range [1,1024]"},
	{`{"classes":100000000}`, "classes 1e+08 out of range"},
	{`{"samples":2097152}`, "samples 2.097152e+06 out of range"},
	{`{"samples":8}`, "samples 8 out of range [32,"},
	{`{"theta":1.5}`, "theta 1.5 outside [0,1)"},
	{`{"theta":-0.1}`, "theta -0.1 outside [0,1)"},
	{`{"lr":-1}`, "lr -1 must be positive"},
	{`{"momentum":1}`, "momentum 1 outside [0,1)"},
	{`{"drop_epoch":-2}`, "drop_epoch -2 out of range"},
	{`{"sync_every":-1}`, "sync_every -1 out of range"},
	{`{"group_size":-1}`, "group_size -1 out of range"},
	{`{"bucket_bytes":-1}`, "bucket_bytes -1 out of range"},
	{`{"heartbeat_ms":-1}`, "heartbeat_ms -1 out of range"},
	{`{"chaos":{"delay_ms":-1}}`, "chaos.delay_ms -1 out of range"},
	{`{"chaos":{"drop":2}}`, "chaos.drop 2 out of range [0,1]"},
	{`{"chaos":{"delay_prob":-0.5}}`, "chaos.delay_prob -0.5 out of range [0,1]"},
	{`{"chaos":{"dup":1.5}}`, "chaos.dup 1.5 out of range [0,1]"},
	{`{"chaos":{"corrupt":7}}`, "chaos.corrupt 7 out of range [0,1]"},
	{`{"chaos":{"crash_rank":99}}`, "chaos.crash_rank 99 out of range [0,1]"},
	{`{"chaos":{"crash_rank":-1}}`, "chaos.crash_rank -1 out of range [0,1]"},
	{`{"elastic_joins":[5],"chaos":{"straggle_rank":3}}`, "chaos.straggle_rank 3 out of range [0,2]"},
	{`{"fault":true,"on_failure":"retry"}`, `unknown policy "retry"`},
	{`{"fault":true,"on_straggler":"skip"}`, `unknown straggler policy "skip"`},
	{`{"guard":true,"guard_scrub":"zero"}`, `unknown scrub policy "zero"`},
	{`{"fault":true,"max_retries":-1}`, "max_retries -1 out of range [1,+Inf]"},
	{`{"guard":true,"guard_drift_every":-5}`, "guard_drift_every -5 out of range [0,+Inf]"},
	{`{"guard":true,"guard_rollback_after":2}`, "guard_rollback_after 2 out of range [4,+Inf]"},
	// Mode combinations are dist.Config.Validate's, reached through
	// Spec.Config: a 400 at submission, no longer a failed job.
	{`{"backend":"ps","guard":true}`, "require the bsp backend"},
	// A key the Spec does not have is refused by name, not ignored: a
	// typo, or a field that no longer exists.
	{`{"thetta":0.5}`, `unknown field "thetta"`},
	{`{"sparse_allreduce":true}`, `unknown field "sparse_allreduce"`},
	{`{"partitioned":true}`, `unknown field "partitioned"`},
	{`{"chaos":{"dropp":0.1}}`, `unknown field "dropp"`},
	// A Millis whose nanosecond count overflows int64 dies in the
	// decoder, on every platform, with the value as written.
	{`{"heartbeat_ms":1e300}`, "1e300 ms does not fit a duration"},
	{`{"suspect_after_ms":1e300}`, "1e300 ms does not fit a duration"},
	{`{"chaos":{"delay_ms":1e300}}`, "1e300 ms does not fit a duration"},
	{`{"chaos":{"straggle_by_ms":1e300}}`, "1e300 ms does not fit a duration"},
}

// TestSpecRejects is Spec.Validate's table seen from the wire: each row
// breaks one rule, and POST /jobs must answer 400 naming it — not run
// the job, and not panic in the handler ({"classes":-1} used to).
func TestSpecRejects(t *testing.T) {
	srv := New(Config{})
	for _, tc := range specRejects {
		rec := httptest.NewRecorder()
		srv.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		var apiErr apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
			t.Fatalf("%s: %v in %q", tc.body, err, rec.Body)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("%s: status %d %q, want 400 with %q", tc.body, rec.Code, apiErr.Error, tc.want)
		}
	}
	if jobs := srv.List(); len(jobs) != 0 {
		t.Fatalf("%d rejected submissions were admitted", len(jobs))
	}
}

// TestDecodeSpecAcceptsKnownKeys: rejecting unknown keys must not reject
// a known one — the body the benchmark submits included.
func TestDecodeSpecAcceptsKnownKeys(t *testing.T) {
	for _, body := range []string{`{}`, `{"epochs":1}`, `{"theta":0.5,"chaos":{"drop":0.1}}`} {
		if _, err := decodeSpec(strings.NewReader(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// specKeys returns the JSON key of every field of t, the fields of a
// nested struct (chaos) under "<key>.".
func specKeys(t reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
		keys = append(keys, key)
		if ft := f.Type; ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct {
			keys = append(keys, specKeys(ft.Elem(), key+".")...)
		}
	}
	return keys
}

// TestREADMEJobTable holds README's "Job description" table to the Spec:
// every JSON key the Spec decodes appears exactly once in the table's
// "JSON key" column, and every row names a key the Spec has — so a field
// cannot be added, renamed or deleted without its row.
func TestREADMEJobTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	rows := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if col < 0 {
			col = slices.Index(cells, " JSON key ")
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		if key := strings.Trim(cells[col], " `"); !strings.HasPrefix(key, "---") {
			rows[key]++
		}
	}
	if len(rows) == 0 {
		t.Fatal(`README has no table with a "JSON key" column`)
	}
	want := map[string]bool{}
	for _, key := range specKeys(reflect.TypeOf(Spec{}), "") {
		want[key] = true
		if rows[key] != 1 {
			t.Errorf("JSON key %q has %d rows in README's job table, want 1", key, rows[key])
		}
	}
	for key := range rows {
		if !want[key] {
			t.Errorf("README's job table has a row for %q, which serve.Spec does not decode", key)
		}
	}
}
