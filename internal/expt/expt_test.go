package expt

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/workload"
)

// smallSuite builds a two-benchmark suite once for the package tests.
var testSuite *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if testSuite == nil {
		s, err := NewSuite(workload.SizeTest, []string{"compress", "ijpeg"})
		if err != nil {
			t.Fatal(err)
		}
		testSuite = s
	}
	return testSuite
}

func TestFigureIDsCompleteAndOrdered(t *testing.T) {
	ids := FigureIDs()
	want := []string{"fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6",
		"fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10a", "fig10b", "fig11", "fig12"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// goldenFigures is the CSV of every figure over all eight benchmarks
// at size test, exactly as `spmt-experiments -size test -csv` prints
// it. Regenerate it only for a change that is meant to move the
// science:
//
//	go run ./cmd/spmt-experiments -size test -csv > internal/expt/testdata/figures_test.csv
const goldenFigures = "testdata/figures_test.csv"

// TestAllFiguresRender renders every figure in both formats and pins
// the full eight-benchmark CSV byte-for-byte to the golden file, so a
// refactor anywhere under the figures (reach, selection, simulator)
// cannot silently move a number.
func TestAllFiguresRender(t *testing.T) {
	s := getSuite(t)
	for _, id := range FigureIDs() {
		tab, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		if !strings.Contains(buf.String(), "Figure") {
			t.Errorf("%s: missing title", id)
		}
		buf.Reset()
		if err := tab.RenderCSV(&buf); err != nil {
			t.Fatalf("%s csv: %v", id, err)
		}
	}

	want, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	all, err := NewSuiteEngine(eng, workload.SizeTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range FigureIDs() {
		tab, err := all.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := tab.RenderCSV(&got); err != nil {
			t.Fatalf("%s csv: %v", id, err)
		}
		got.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("figures CSV differs from %s at line %d:\n got  %q\n want %q", goldenFigures, i+1, g, w)
			}
		}
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	s := getSuite(t)
	if _, err := s.Run("fig99"); err == nil {
		t.Error("expected error for unknown figure")
	}
}

func TestSimCacheHits(t *testing.T) {
	s := getSuite(t)
	b := s.Bench("compress")
	if b == nil {
		t.Fatal("bench lookup failed")
	}
	r1, err := s.Sim(b, SimSpec{Policy: "profile", TUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Sim(b, SimSpec{Policy: "profile", TUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical SimSpec did not hit the cache")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	s := getSuite(t)
	if _, err := s.Sim(s.Benches[0], SimSpec{Policy: "wat", TUs: 4}); err == nil {
		t.Error("expected error for unknown policy")
	}
}

func TestNamesAndBaseline(t *testing.T) {
	s := getSuite(t)
	names := s.Names()
	if len(names) != 2 || names[0] != "compress" || names[1] != "ijpeg" {
		t.Fatalf("names = %v", names)
	}
	base, err := s.Baseline(s.Benches[0])
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Errorf("baseline cycles = %d", base)
	}
	if s.Bench("nonesuch") != nil {
		t.Error("Bench(unknown) != nil")
	}
}

func TestProfileVsHeuristicsShape(t *testing.T) {
	// The headline result at full suite scale is checked in
	// EXPERIMENTS.md; at test scale we just require both policies to
	// produce real speed-ups on the regular benchmark.
	s := getSuite(t)
	b := s.Bench("ijpeg")
	base, err := s.Baseline(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"profile", "heuristics"} {
		r, err := s.Sim(b, SimSpec{Policy: pol, TUs: 16})
		if err != nil {
			t.Fatal(err)
		}
		if sp := float64(base) / float64(r.Cycles); sp < 2 {
			t.Errorf("%s speed-up %.2f < 2 on ijpeg", pol, sp)
		}
	}
}

func TestCriteriaTablesDiffer(t *testing.T) {
	s := getSuite(t)
	b := s.Bench("ijpeg")
	td, err := b.ProfileTable(0)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := b.ProfileTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if td == ti {
		t.Error("criteria share a table instance")
	}
}

func TestRemovalForCompressException(t *testing.T) {
	if removalFor("compress") != 200 || removalFor("gcc") != 50 {
		t.Error("removal thresholds wrong")
	}
}

func TestPredictorsProduceAccuracy(t *testing.T) {
	s := getSuite(t)
	b := s.Bench("ijpeg")
	for _, pk := range []cluster.PredictorKind{cluster.Stride, cluster.Context} {
		r, err := s.Sim(b, SimSpec{Policy: "profile", TUs: 16, Predictor: pk})
		if err != nil {
			t.Fatal(err)
		}
		if r.VPLookups == 0 {
			t.Errorf("%v: no lookups", pk)
		}
		if a := r.VPAccuracy(); a < 0.2 || a > 1 {
			t.Errorf("%v accuracy %.2f implausible", pk, a)
		}
	}
}
