package expt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/stats"
)

// Runner produces one figure's table.
//
// Every runner declares its whole simulation grid up front and submits
// it through Suite.gridSims as a single engine dependency layer, so one
// figure saturates the core budget (and dedups against warm artifacts)
// instead of issuing its simulations sequentially. Assembly from the
// positional results is then pure formatting, so a parallel run stays
// byte-identical to a serial one.
type Runner func(s *Suite) (*report.Table, error)

// figures maps figure IDs to runners. See DESIGN.md §4 for the index.
var figures = map[string]Runner{
	"fig2":   Fig2PairCounts,
	"fig3":   Fig3ProfileSpeedup,
	"fig4":   Fig4ActiveThreads,
	"fig5a":  Fig5aRemoval,
	"fig5b":  Fig5bOccurrences,
	"fig6":   Fig6Reassign,
	"fig7a":  Fig7aThreadSize,
	"fig7b":  Fig7bMinSize,
	"fig8":   Fig8VsHeuristics,
	"fig9a":  Fig9aVPAccuracy,
	"fig9b":  Fig9bStrideSpeedup,
	"fig10a": Fig10aCriteriaAccuracy,
	"fig10b": Fig10bCriteriaSpeedup,
	"fig11":  Fig11Overhead,
	"fig12":  Fig12FourTU,
}

// Run executes the runner for a figure ID.
func (s *Suite) Run(id string) (*report.Table, error) {
	r, ok := figures[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown figure %q (have %v)", id, FigureIDs())
	}
	return r(s)
}

// removalFor returns the per-benchmark alone-cycle removal threshold the
// paper settles on: 50 cycles, except compress where aggressive removal
// collapses its small pair set and 200 is used (§4.2, Figure 6).
func removalFor(name string) int64 {
	if name == "compress" {
		return 200
	}
	return 50
}

// speedups divides the baseline cycle count (results column base) by
// each of the given result columns.
func speedup(base *cluster.Result, r *cluster.Result) float64 {
	return stats.Speedup(base.Cycles, r.Cycles)
}

// Fig2PairCounts reproduces Figure 2: candidate spawning pairs passing
// the thresholds vs selected pairs (distinct spawning points).
func Fig2PairCounts(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 2: candidate pairs vs selected pairs (min prob 0.95, min distance 32)",
		Columns: []string{"benchmark", "total-pairs", "selected", "return-pairs", "cfg-nodes", "coverage"},
	}
	// No simulations here, but the per-benchmark table builds are still
	// submitted as one engine layer.
	jobs := make([]engine.Job, len(s.Benches))
	for i, b := range s.Benches {
		jobs[i] = b.profileTableJob(core.MaxDistance)
	}
	vals, err := s.execLayer(jobs)
	if err != nil {
		return nil, err
	}
	var totals, selected float64
	for i, b := range s.Benches {
		tab := vals[i].(*core.Table)
		returns := 0
		for _, p := range tab.Primary {
			if p.Kind == core.KindReturn {
				returns++
			}
		}
		t.AddRow(b.Name, report.FmtInt(int64(tab.TotalCandidates)), report.FmtInt(int64(tab.Len())),
			report.FmtInt(int64(returns)), report.FmtInt(int64(len(b.Graph.Nodes))), report.FmtPct(b.Graph.Coverage))
		totals += float64(tab.TotalCandidates)
		selected += float64(tab.Len())
	}
	n := float64(len(s.Benches))
	t.AddRow("Amean", report.Fmt(totals/n), report.Fmt(selected/n), "", "", "")
	t.Note = "paper: avg 6218 total / 499 selected on full SpecInt95; shape target = total >> selected, gcc largest, compress smallest"
	return t, nil
}

// Fig3ProfileSpeedup reproduces Figure 3: 16-TU speed-up over a single
// thread, profile policy, perfect value prediction.
func Fig3ProfileSpeedup(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 3: speed-up, 16 TUs, profile-based pairs, perfect value prediction",
		Columns: []string{"benchmark", "base-cycles", "smt-cycles", "speed-up"},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		return []SimSpec{BaselineSpec(), {Policy: "profile", TUs: 16}}
	})
	if err != nil {
		return nil, err
	}
	var sp []float64
	for bi, b := range s.Benches {
		base, r := res[bi][0], res[bi][1]
		v := speedup(base, r)
		sp = append(sp, v)
		t.AddRow(b.Name, report.FmtInt(base.Cycles), report.FmtInt(r.Cycles), report.Fmt(v))
	}
	t.AddRow("Hmean", "", "", report.Fmt(stats.HarmonicMean(sp)))
	t.Note = "paper: hmean 7.2, ijpeg highest (11.9)"
	return t, nil
}

// Fig4ActiveThreads reproduces Figure 4: average number of active
// threads for the Figure 3 configuration.
func Fig4ActiveThreads(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 4: average active threads, 16 TUs, profile pairs, perfect prediction",
		Columns: []string{"benchmark", "active-threads", "allocated-threads"},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		return []SimSpec{{Policy: "profile", TUs: 16}}
	})
	if err != nil {
		return nil, err
	}
	var act []float64
	for bi, b := range s.Benches {
		r := res[bi][0]
		act = append(act, r.AvgActiveThreads)
		t.AddRow(b.Name, report.Fmt(r.AvgActiveThreads), report.Fmt(r.AvgAllocatedThreads))
	}
	t.AddRow("Amean", report.Fmt(stats.ArithmeticMean(act)), "")
	t.Note = "paper: amean 7.5, ijpeg 9.0"
	return t, nil
}

// Fig5aRemoval reproduces Figure 5a: spawning-pair removal after
// executing alone for 0 (never) / 50 / 200 cycles.
func Fig5aRemoval(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 5a: speed-up under spawning-pair removal (alone-cycle thresholds)",
		Columns: []string{"benchmark", "no-removal", "removal-50", "removal-200"},
	}
	removals := []int64{0, 50, 200}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := []SimSpec{BaselineSpec()}
		for _, rm := range removals {
			specs = append(specs, SimSpec{Policy: "profile", TUs: 16, Removal: rm})
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	means := make([][]float64, len(removals))
	for bi, b := range s.Benches {
		base := res[bi][0]
		row := []string{b.Name}
		for ri := range removals {
			v := speedup(base, res[bi][1+ri])
			row = append(row, report.Fmt(v))
			means[ri] = append(means[ri], v)
		}
		t.AddRow(row...)
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(means[0])), report.Fmt(stats.HarmonicMean(means[1])), report.Fmt(stats.HarmonicMean(means[2])))
	t.Note = "paper: 200-cycle removal ~10% over no removal; compress drops sharply at 50"
	return t, nil
}

// Fig5bOccurrences reproduces Figure 5b: delaying 50-cycle removal until
// the alone condition has occurred 1 / 8 / 16 times.
func Fig5bOccurrences(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 5b: 50-cycle removal delayed by occurrence count",
		Columns: []string{"benchmark", "1-occurrence", "8-occurrences", "16-occurrences"},
	}
	occurs := []int{1, 8, 16}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := []SimSpec{BaselineSpec()}
		for _, oc := range occurs {
			specs = append(specs, SimSpec{Policy: "profile", TUs: 16, Removal: 50, Occur: oc})
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	means := make([][]float64, len(occurs))
	for bi, b := range s.Benches {
		base := res[bi][0]
		row := []string{b.Name}
		for oi := range occurs {
			v := speedup(base, res[bi][1+oi])
			row = append(row, report.Fmt(v))
			means[oi] = append(means[oi], v)
		}
		t.AddRow(row...)
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(means[0])), report.Fmt(stats.HarmonicMean(means[1])), report.Fmt(stats.HarmonicMean(means[2])))
	t.Note = "paper: delay helps mainly compress; others lose slightly"
	return t, nil
}

// Fig6Reassign reproduces Figure 6: reassign policy vs plain removal.
func Fig6Reassign(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 6: reassign policy vs removal (50 cycles; compress 200)",
		Columns: []string{"benchmark", "removal", "reassign"},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		rm := removalFor(b.Name)
		return []SimSpec{
			BaselineSpec(),
			{Policy: "profile", TUs: 16, Removal: rm},
			{Policy: "profile", TUs: 16, Removal: rm, Reassign: true},
		}
	})
	if err != nil {
		return nil, err
	}
	var vr, va []float64
	for bi, b := range s.Benches {
		base := res[bi][0]
		s1, s2 := speedup(base, res[bi][1]), speedup(base, res[bi][2])
		vr = append(vr, s1)
		va = append(va, s2)
		t.AddRow(b.Name, report.Fmt(s1), report.Fmt(s2))
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(vr)), report.Fmt(stats.HarmonicMean(va)))
	t.Note = "paper: reassign is slightly worse (it creates small threads)"
	return t, nil
}

// Fig7aThreadSize reproduces Figure 7a: average committed speculative
// thread size under the removal policy.
func Fig7aThreadSize(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 7a: average thread size (instructions), removal policy, no reassign",
		Columns: []string{"benchmark", "avg-thread-size", "threads-committed"},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		return []SimSpec{{Policy: "profile", TUs: 16, Removal: removalFor(b.Name)}}
	})
	if err != nil {
		return nil, err
	}
	var sizes []float64
	for bi, b := range s.Benches {
		r := res[bi][0]
		sizes = append(sizes, r.AvgThreadSize)
		t.AddRow(b.Name, report.Fmt(r.AvgThreadSize), report.FmtInt(r.ThreadsCommitted))
	}
	t.AddRow("Amean", report.Fmt(stats.ArithmeticMean(sizes)), "")
	t.Note = "paper: most benchmarks below 32 due to overlapped spawns truncating threads"
	return t, nil
}

// Fig7bMinSize reproduces Figure 7b: enforcing a 32-instruction minimum
// thread size.
func Fig7bMinSize(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 7b: enforcing minimum thread size 32 (removal 50; compress 200)",
		Columns: []string{"benchmark", "no-minimum", "minimum-32"},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		rm := removalFor(b.Name)
		return []SimSpec{
			BaselineSpec(),
			{Policy: "profile", TUs: 16, Removal: rm},
			{Policy: "profile", TUs: 16, Removal: rm, MinSize: 32},
		}
	})
	if err != nil {
		return nil, err
	}
	var v0, v32 []float64
	for bi, b := range s.Benches {
		base := res[bi][0]
		s1, s2 := speedup(base, res[bi][1]), speedup(base, res[bi][2])
		v0 = append(v0, s1)
		v32 = append(v32, s2)
		t.AddRow(b.Name, report.Fmt(s1), report.Fmt(s2))
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(v0)), report.Fmt(stats.HarmonicMean(v32)))
	t.Note = "paper: ~10% over the plain removal policy"
	return t, nil
}

// Fig8VsHeuristics reproduces Figure 8: profile-based speed-up over the
// combined traditional heuristics (perfect prediction, 16 TUs).
func Fig8VsHeuristics(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 8: profile-based vs combined heuristics (16 TUs, perfect prediction)",
		Columns: []string{"benchmark", "profile", "heuristics", "ratio"},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		return []SimSpec{
			BaselineSpec(),
			{Policy: "profile", TUs: 16},
			{Policy: "heuristics", TUs: 16},
		}
	})
	if err != nil {
		return nil, err
	}
	var vp, vh []float64
	for bi, b := range s.Benches {
		base := res[bi][0]
		sp, sh := speedup(base, res[bi][1]), speedup(base, res[bi][2])
		vp = append(vp, sp)
		vh = append(vh, sh)
		t.AddRow(b.Name, report.Fmt(sp), report.Fmt(sh), report.Fmt(stats.Ratio(sp, sh)))
	}
	hp, hh := stats.HarmonicMean(vp), stats.HarmonicMean(vh)
	t.AddRow("Hmean", report.Fmt(hp), report.Fmt(hh), report.Fmt(stats.Ratio(hp, hh)))
	t.Note = "paper: profile wins by ~20% on average; perl slightly loses"
	return t, nil
}

// Fig9aVPAccuracy reproduces Figure 9a: live-in value prediction
// accuracy for stride and context predictors under both policies.
func Fig9aVPAccuracy(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 9a: live-in value prediction accuracy (16KB predictors)",
		Columns: []string{"benchmark", "stride+profile", "context+profile", "stride+heur", "context+heur"},
	}
	combos := []struct {
		pol  string
		pred cluster.PredictorKind
	}{
		{"profile", cluster.Stride}, {"profile", cluster.Context},
		{"heuristics", cluster.Stride}, {"heuristics", cluster.Context},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := make([]SimSpec, len(combos))
		for i, c := range combos {
			specs[i] = SimSpec{Policy: c.pol, TUs: 16, Predictor: c.pred}
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	accs := make([][]float64, len(combos))
	for bi, b := range s.Benches {
		row := []string{b.Name}
		for ci := range combos {
			acc := res[bi][ci].VPAccuracy()
			row = append(row, report.FmtPct(acc))
			accs[ci] = append(accs[ci], acc)
		}
		t.AddRow(row...)
	}
	t.AddRow("Amean", report.FmtPct(stats.ArithmeticMean(accs[0])), report.FmtPct(stats.ArithmeticMean(accs[1])),
		report.FmtPct(stats.ArithmeticMean(accs[2])), report.FmtPct(stats.ArithmeticMean(accs[3])))
	t.Note = "paper: ~70% for all four combinations"
	return t, nil
}

// Fig9bStrideSpeedup reproduces Figure 9b: perfect vs stride prediction
// speed-ups for both policies.
func Fig9bStrideSpeedup(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 9b: speed-ups with perfect vs stride prediction (16 TUs)",
		Columns: []string{"benchmark", "perfect+profile", "stride+profile", "perfect+heur", "stride+heur"},
	}
	combos := []struct {
		pol  string
		pred cluster.PredictorKind
	}{
		{"profile", cluster.Perfect}, {"profile", cluster.Stride},
		{"heuristics", cluster.Perfect}, {"heuristics", cluster.Stride},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := []SimSpec{BaselineSpec()}
		for _, c := range combos {
			specs = append(specs, SimSpec{Policy: c.pol, TUs: 16, Predictor: c.pred})
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, len(combos))
	for bi, b := range s.Benches {
		base := res[bi][0]
		row := []string{b.Name}
		for ci := range combos {
			v := speedup(base, res[bi][1+ci])
			row = append(row, report.Fmt(v))
			cols[ci] = append(cols[ci], v)
		}
		t.AddRow(row...)
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(cols[0])), report.Fmt(stats.HarmonicMean(cols[1])),
		report.Fmt(stats.HarmonicMean(cols[2])), report.Fmt(stats.HarmonicMean(cols[3])))
	t.Note = "paper: stride keeps >6 (profile) vs ~5.5 (heuristics); both lose 25-34% vs perfect"
	return t, nil
}

// Fig10aCriteriaAccuracy reproduces Figure 10a: prediction accuracy when
// CQIPs are chosen by the independent / predictable criteria.
func Fig10aCriteriaAccuracy(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 10a: prediction accuracy for independent/predictable ordering criteria",
		Columns: []string{"benchmark", "stride+indep", "context+indep", "stride+pred", "context+pred"},
	}
	combos := []struct {
		pol  string
		pred cluster.PredictorKind
	}{
		{"profile-indep", cluster.Stride}, {"profile-indep", cluster.Context},
		{"profile-pred", cluster.Stride}, {"profile-pred", cluster.Context},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := make([]SimSpec, len(combos))
		for i, c := range combos {
			specs[i] = SimSpec{Policy: c.pol, TUs: 16, Predictor: c.pred}
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	accs := make([][]float64, len(combos))
	for bi, b := range s.Benches {
		row := []string{b.Name}
		for ci := range combos {
			acc := res[bi][ci].VPAccuracy()
			row = append(row, report.FmtPct(acc))
			accs[ci] = append(accs[ci], acc)
		}
		t.AddRow(row...)
	}
	t.AddRow("Amean", report.FmtPct(stats.ArithmeticMean(accs[0])), report.FmtPct(stats.ArithmeticMean(accs[1])),
		report.FmtPct(stats.ArithmeticMean(accs[2])), report.FmtPct(stats.ArithmeticMean(accs[3])))
	t.Note = "paper: the predictable criterion reaches ~75%, best accuracy"
	return t, nil
}

// Fig10bCriteriaSpeedup reproduces Figure 10b: speed-ups of the
// independent and predictable criteria (stride predictor).
func Fig10bCriteriaSpeedup(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 10b: speed-up of independent/predictable criteria vs max-distance (stride)",
		Columns: []string{"benchmark", "max-distance", "independent", "predictable"},
	}
	policies := []string{"profile", "profile-indep", "profile-pred"}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := []SimSpec{BaselineSpec()}
		for _, pol := range policies {
			specs = append(specs, SimSpec{Policy: pol, TUs: 16, Predictor: cluster.Stride})
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, len(policies))
	for bi, b := range s.Benches {
		base := res[bi][0]
		row := []string{b.Name}
		for pi := range policies {
			v := speedup(base, res[bi][1+pi])
			row = append(row, report.Fmt(v))
			cols[pi] = append(cols[pi], v)
		}
		t.AddRow(row...)
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(cols[0])), report.Fmt(stats.HarmonicMean(cols[1])),
		report.Fmt(stats.HarmonicMean(cols[2])))
	t.Note = "paper: both alternatives ~35% below max-distance (smaller threads)"
	return t, nil
}

// Fig11Overhead reproduces Figure 11: slow-down from an 8-cycle thread
// initialisation overhead (stride predictor).
func Fig11Overhead(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 11: slow-down from 8-cycle spawn overhead (stride predictor)",
		Columns: []string{"benchmark", "profile", "heuristics"},
	}
	policies := []string{"profile", "heuristics"}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		var specs []SimSpec
		for _, pol := range policies {
			specs = append(specs,
				SimSpec{Policy: pol, TUs: 16, Predictor: cluster.Stride},
				SimSpec{Policy: pol, TUs: 16, Predictor: cluster.Stride, Overhead: 8})
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	var vp, vh []float64
	for bi, b := range s.Benches {
		row := []string{b.Name}
		for pi, pol := range policies {
			r0, r8 := res[bi][2*pi], res[bi][2*pi+1]
			// Slow-down: fraction of performance retained with overhead.
			v := float64(r0.Cycles) / float64(r8.Cycles)
			row = append(row, report.Fmt(v))
			if pol == "profile" {
				vp = append(vp, v)
			} else {
				vh = append(vh, v)
			}
		}
		t.AddRow(row...)
	}
	t.AddRow("Hmean", report.Fmt(stats.HarmonicMean(vp)), report.Fmt(stats.HarmonicMean(vh)))
	t.Note = "paper: ~12% slow-down (value ~0.88) for both policies"
	return t, nil
}

// Fig12FourTU reproduces Figure 12: average speed-ups on a 4-TU
// processor for perfect, stride, and stride+overhead.
func Fig12FourTU(s *Suite) (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 12: average speed-ups, 4 thread units",
		Columns: []string{"config", "profile", "heuristics"},
	}
	type cfgRow struct {
		name string
		pred cluster.PredictorKind
		ov   int64
	}
	rows := []cfgRow{
		{"perfect", cluster.Perfect, 0},
		{"stride", cluster.Stride, 0},
		{"stride+overhead", cluster.Stride, 8},
	}
	res, err := s.gridSims(func(b *Bench) []SimSpec {
		specs := []SimSpec{BaselineSpec()}
		for _, cr := range rows {
			specs = append(specs,
				SimSpec{Policy: "profile", TUs: 4, Predictor: cr.pred, Overhead: cr.ov},
				SimSpec{Policy: "heuristics", TUs: 4, Predictor: cr.pred, Overhead: cr.ov})
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	for ri, cr := range rows {
		var vp, vh []float64
		for bi := range s.Benches {
			base := res[bi][0]
			vp = append(vp, speedup(base, res[bi][1+2*ri]))
			vh = append(vh, speedup(base, res[bi][2+2*ri]))
		}
		t.AddRow(cr.name, report.Fmt(stats.HarmonicMean(vp)), report.Fmt(stats.HarmonicMean(vh)))
	}
	t.Note = "paper: perfect 2.75 / stride ~2 / stride+overhead ~1.9 (profile)"
	return t, nil
}
