package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// runQuick executes one experiment in Quick mode and returns its report.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(Options{Out: &buf, Quick: true, Seed: 1}); err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

// checksPass asserts that every "CHECK ...: <bool>" line in the report
// ends in true — the qualitative paper properties all hold.
func checksPass(t *testing.T, id, out string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "CHECK") {
			continue
		}
		if strings.Contains(line, "false") {
			t.Errorf("%s failed check: %s", id, line)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 24 { // 15 paper artifacts + 9 ablations
		t.Fatalf("expected 24 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("ByID(%s) not found", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID should miss unknown ids")
	}
}

func TestFig2(t *testing.T)   { checksPass(t, "fig2", runQuick(t, "fig2")) }
func TestFig4(t *testing.T)   { checksPass(t, "fig4", runQuick(t, "fig4")) }
func TestFig5(t *testing.T)   { checksPass(t, "fig5", runQuick(t, "fig5")) }
func TestFig6(t *testing.T)   { checksPass(t, "fig6", runQuick(t, "fig6")) }
func TestFig7(t *testing.T)   { checksPass(t, "fig7", runQuick(t, "fig7")) }
func TestFig9(t *testing.T)   { checksPass(t, "fig9", runQuick(t, "fig9")) }
func TestFig10(t *testing.T)  { checksPass(t, "fig10", runQuick(t, "fig10")) }
func TestFig11(t *testing.T)  { checksPass(t, "fig11", runQuick(t, "fig11")) }
func TestFig12(t *testing.T)  { checksPass(t, "fig12", runQuick(t, "fig12")) }
func TestFig13(t *testing.T)  { checksPass(t, "fig13", runQuick(t, "fig13")) }
func TestFig14(t *testing.T)  { checksPass(t, "fig14", runQuick(t, "fig14")) }
func TestTable2(t *testing.T) { checksPass(t, "table2", runQuick(t, "table2")) }
func TestFig15(t *testing.T)  { checksPass(t, "fig15", runQuick(t, "fig15")) }
func TestFig16(t *testing.T)  { checksPass(t, "fig16", runQuick(t, "fig16")) }

func TestAblTransform(t *testing.T)  { checksPass(t, "abl-transform", runQuick(t, "abl-transform")) }
func TestAblQuant(t *testing.T)      { checksPass(t, "abl-quant", runQuick(t, "abl-quant")) }
func TestAblSelect(t *testing.T)     { checksPass(t, "abl-select", runQuick(t, "abl-select")) }
func TestAblPack(t *testing.T)       { checksPass(t, "abl-pack", runQuick(t, "abl-pack")) }
func TestAblSchedule(t *testing.T)   { checksPass(t, "abl-schedule", runQuick(t, "abl-schedule")) }
func TestAblCollective(t *testing.T) { checksPass(t, "abl-collective", runQuick(t, "abl-collective")) }
func TestAblFeedback(t *testing.T)   { checksPass(t, "abl-feedback", runQuick(t, "abl-feedback")) }
func TestAblBitmap(t *testing.T)     { checksPass(t, "abl-bitmap", runQuick(t, "abl-bitmap")) }

func TestMeasuredRatioSane(t *testing.T) {
	for _, m := range paperMethods() {
		r, err := measuredRatio(m, 1<<18, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if m.name == "fp32" {
			if r != 1 {
				t.Errorf("fp32 ratio %g", r)
			}
		} else if r < 1.5 || r > 40 {
			t.Errorf("%s ratio %.2f implausible", m.name, r)
		}
	}
}

func TestCorrelatedGradientDeterministic(t *testing.T) {
	a := correlatedGradient(1000, 5)
	b := correlatedGradient(1000, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestAblChunk(t *testing.T) { checksPass(t, "abl-chunk", runQuick(t, "abl-chunk")) }

func TestFig13CNN(t *testing.T) { checksPass(t, "fig13cnn", runQuick(t, "fig13cnn")) }

func TestUnionDensity(t *testing.T) {
	if got := unionDensity(0.5, 1); got != 0.5 {
		t.Fatalf("p=1 union %g", got)
	}
	if got := unionDensity(0.15, 8); math.Abs(got-(1-math.Pow(0.85, 8))) > 1e-12 {
		t.Fatalf("union density %g", got)
	}
	// Monotone in p.
	prev := 0.0
	for p := 1; p <= 32; p *= 2 {
		u := unionDensity(0.1, p)
		if u <= prev {
			t.Fatalf("union density not monotone at p=%d", p)
		}
		prev = u
	}
}
