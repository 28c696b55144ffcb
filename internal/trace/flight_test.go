package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	if f.Trigger(0, ReasonPanic) != "" || f.Dumps() != 0 {
		t.Fatal("nil recorder must no-op")
	}
	if NewFlightRecorder(nil, "x.json") != nil {
		t.Fatal("nil tracer must yield nil recorder")
	}
	if NewFlightRecorder(New(1, 8), "") != nil {
		t.Fatal("empty path must yield nil recorder")
	}
}

func TestFlightRecorderDump(t *testing.T) {
	tr := buildDeterministic()
	path := filepath.Join(t.TempDir(), "flight.json")
	f := NewFlightRecorder(tr, path)
	if got := f.Trigger(1, ReasonNoQuorum); got != path {
		t.Fatalf("Trigger returned %q, want %q", got, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("dump is not valid trace_event JSON: %v", err)
	}
	// The dump must contain its own cause: a flight_trigger instant on
	// the triggering rank carrying the reason.
	found := false
	for _, e := range events {
		if e["ph"] == "i" && e["name"] == "flight_trigger" && e["tid"] == float64(1) {
			args := e["args"].(map[string]any)
			if args["arg"] == float64(ReasonNoQuorum) {
				found = true
			}
		}
	}
	if !found {
		t.Error("dump missing the triggering flight_trigger instant")
	}
	if f.Dumps() != 1 {
		t.Errorf("Dumps() = %d, want 1", f.Dumps())
	}
}

func TestFlightRecorderOutOfRangeRank(t *testing.T) {
	tr := buildDeterministic()
	path := filepath.Join(t.TempDir(), "flight.json")
	f := NewFlightRecorder(tr, path)
	// A rank beyond the tracer's tracks falls back to rank 0.
	if got := f.Trigger(99, ReasonManual); got != path {
		t.Fatalf("Trigger returned %q, want %q", got, path)
	}
}

func TestFlightRecorderDumpCap(t *testing.T) {
	tr := buildDeterministic()
	path := filepath.Join(t.TempDir(), "flight.json")
	f := NewFlightRecorder(tr, path)
	fired := 0
	for i := 0; i < maxDumps+4; i++ {
		if f.Trigger(0, ReasonRollback) != "" {
			fired++
		}
	}
	if fired != maxDumps {
		t.Errorf("%d dumps fired, want %d (maxDumps)", fired, maxDumps)
	}
	if f.Dumps() != maxDumps {
		t.Errorf("Dumps() = %d, want %d", f.Dumps(), maxDumps)
	}
}

func TestReasonString(t *testing.T) {
	for r := ReasonManual; r < numReasons; r++ {
		if r.String() == "" || r.String() == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
	}
	if Reason(99).String() != "unknown" {
		t.Error("out-of-range reason must stringify as unknown")
	}
}
