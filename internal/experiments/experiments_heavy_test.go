package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Heavy end-to-end experiment tests. They run the Small scale (seconds
// each) and assert the paper's qualitative shapes; -short skips them.

func TestFig3IoUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig3IoU(Small)
	if err != nil {
		t.Fatal(err)
	}
	tb := findTable(t, rep, "iou")
	// 12 datasets (2 stats × 2 k × 3 dims at Small) × 4 methods.
	if len(tb.Rows) != 48 {
		t.Fatalf("rows = %d, want 48", len(tb.Rows))
	}
	get := func(stat, method string) []float64 {
		var out []float64
		for i, row := range tb.Rows {
			if row[0] == stat && row[3] == method {
				out = append(out, cell(t, tb, i, 4))
			}
		}
		return out
	}
	mean := func(vals []float64) float64 {
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	// Shape 1: SuRF usable accuracy on both statistics. Absolute
	// levels at the Small scale sit below the paper's (its surrogates
	// train on up to 300K queries); the bar here guards against
	// collapse, and shapes 2–3 check the paper's comparative claims.
	if m := mean(get("density", "SuRF")); m < 0.12 {
		t.Errorf("SuRF density mean IoU = %.3f, want >= 0.12", m)
	}
	if m := mean(get("aggregate", "SuRF")); m < 0.08 {
		t.Errorf("SuRF aggregate mean IoU = %.3f, want >= 0.08", m)
	}
	// Shape 2: PRIM collapses on density relative to aggregate.
	primAgg := mean(get("aggregate", "PRIM"))
	primDen := mean(get("density", "PRIM"))
	if primDen >= primAgg {
		t.Errorf("PRIM density %.3f should be below aggregate %.3f", primDen, primAgg)
	}
	// Shape 3: SuRF tracks f+GlowWorm within a coarse band.
	surfAll := mean(append(get("density", "SuRF"), get("aggregate", "SuRF")...))
	fgwAll := mean(append(get("density", "f+GlowWorm"), get("aggregate", "f+GlowWorm")...))
	if surfAll < fgwAll-0.2 {
		t.Errorf("SuRF mean IoU %.3f trails f+GlowWorm %.3f by more than 0.2", surfAll, fgwAll)
	}
}

func TestFig4GroupedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig4Grouped(Small)
	if err != nil {
		t.Fatal(err)
	}
	byK := findTable(t, rep, "by_regions")
	if len(byK.Rows) != 8 { // 4 methods × k ∈ {1,3}
		t.Fatalf("by_regions rows = %d, want 8", len(byK.Rows))
	}
	byStat := findTable(t, rep, "by_stat")
	if len(byStat.Rows) != 8 { // 4 methods × 2 stats
		t.Fatalf("by_stat rows = %d, want 8", len(byStat.Rows))
	}
	// All means are valid IoU values.
	for _, tb := range []*Table{byK, byStat} {
		for i := range tb.Rows {
			m := cell(t, tb, i, 2)
			if m < 0 || m > 1 {
				t.Errorf("%s row %d mean IoU %g out of [0,1]", tb.Name, i, m)
			}
		}
	}
}

func TestFig5CrimesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig5Crimes(Small)
	if err != nil {
		t.Fatal(err)
	}
	regions := findTable(t, rep, "regions")
	if len(regions.Rows) == 0 {
		t.Fatal("no regions proposed")
	}
	// Most proposed regions must truly exceed Q3 (paper: 100%).
	ok := 0
	for _, row := range regions.Rows {
		if row[4] == "true" {
			ok++
		}
	}
	if frac := float64(ok) / float64(len(regions.Rows)); frac < 0.7 {
		t.Errorf("compliance = %.2f, want >= 0.7", frac)
	}
	heat := findTable(t, rep, "heatmap")
	if len(heat.Rows) != 400 {
		t.Fatalf("heatmap rows = %d, want 400", len(heat.Rows))
	}
	// The surrogate field must correlate with the true field: check
	// the cells with the top true counts also have above-average
	// estimates.
	var maxTrue, sumHat float64
	var hatAtMax float64
	for i := range heat.Rows {
		trueC := cell(t, heat, i, 2)
		hatC := cell(t, heat, i, 3)
		sumHat += hatC
		if trueC > maxTrue {
			maxTrue = trueC
			hatAtMax = hatC
		}
	}
	if hatAtMax < sumHat/float64(len(heat.Rows)) {
		t.Error("surrogate estimate at the true hotspot is below the map average")
	}
}

func TestTab1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Tab1Comparative(Small)
	if err != nil {
		t.Fatal(err)
	}
	tb := findTable(t, rep, "times")
	// 4 methods × 3 dims.
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	parse := func(method string, d int, col int) (float64, bool) {
		for i, row := range tb.Rows {
			if row[0] == method && row[1] == strconv.Itoa(d) {
				v, err := strconv.ParseFloat(tb.Rows[i][col], 64)
				if err != nil {
					return 0, false // timed-out cell
				}
				return v, true
			}
		}
		t.Fatalf("cell %s d=%d missing", method, d)
		return 0, false
	}
	// Shape 1: SuRF stays within the same order across N (columns 2
	// and 3) — it never touches the data.
	for d := 1; d <= 3; d++ {
		small, ok1 := parse("SuRF", d, 2)
		large, ok2 := parse("SuRF", d, 3)
		if !ok1 || !ok2 {
			t.Fatalf("SuRF timed out at d=%d", d)
		}
		if large > 5*small+0.05 {
			t.Errorf("SuRF d=%d grew with N: %gs -> %gs", d, small, large)
		}
	}
	// Shape 2: f+GlowWorm grows with N.
	fgwSmall, _ := parse("f+GlowWorm", 2, 2)
	fgwLarge, ok := parse("f+GlowWorm", 2, 3)
	if ok && fgwLarge < 2*fgwSmall {
		t.Errorf("f+GlowWorm did not scale with N: %gs -> %gs", fgwSmall, fgwLarge)
	}
	// Shape 3: SuRF beats f+GlowWorm at the largest setting.
	surfLarge, _ := parse("SuRF", 3, 3)
	fgwLargest, ok := parse("f+GlowWorm", 3, 3)
	if ok && surfLarge > fgwLargest {
		t.Errorf("SuRF %gs not faster than f+GlowWorm %gs at the largest cell", surfLarge, fgwLargest)
	}
	// Shape 4: Naive at d=3 either times out or is the slowest method.
	for _, row := range tb.Rows {
		if row[0] == "Naive" && row[1] == "3" {
			last := row[len(row)-1]
			if strings.HasPrefix(last, "- (") {
				return // timed out: expected
			}
			v, _ := strconv.ParseFloat(last, 64)
			surf3, _ := parse("SuRF", 3, 3)
			if v < surf3 {
				t.Errorf("Naive d=3 (%gs) unexpectedly faster than SuRF (%gs)", v, surf3)
			}
		}
	}
}

func TestFig9ConvergenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig9Convergence(Small)
	if err != nil {
		t.Fatal(err)
	}
	conv := findTable(t, rep, "iterations")
	if len(conv.Rows) != 6 { // k ∈ {1,3} × d ∈ {1,2,3}
		t.Fatalf("conv rows = %d, want 6", len(conv.Rows))
	}
	for i := range conv.Rows {
		iters := cell(t, conv, i, 2)
		if iters < 10 || iters > 120 {
			t.Errorf("row %d converged in %g iterations, outside [10,120]", i, iters)
		}
	}
	curves := findTable(t, rep, "eJ")
	if len(curves.Rows) == 0 {
		t.Fatal("no convergence curves")
	}
	// Like every Find, the swarm random-walks its invalid worms, so the
	// 2-D and 4-D settings each reach a valid region: a finite E[J] at
	// some sampled iteration.
	finite := map[[2]float64]bool{}
	for i := range curves.Rows {
		if !math.IsNaN(cell(t, curves, i, 3)) {
			finite[[2]float64{cell(t, curves, i, 0), cell(t, curves, i, 1)}] = true
		}
	}
	for _, k := range []float64{1, 3} {
		for _, dims := range []float64{2, 4} {
			if !finite[[2]float64{k, dims}] {
				t.Errorf("k=%g region_dims=%g: E[J] is NaN at every sampled iteration", k, dims)
			}
		}
	}
}

func TestFig10ScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig10GSOScaling(Small)
	if err != nil {
		t.Fatal(err)
	}
	left := findTable(t, rep, "glowworms")
	right := findTable(t, rep, "iterations")
	if len(left.Rows) != 9 || len(right.Rows) != 6 {
		t.Fatalf("rows = %d/%d, want 9/6", len(left.Rows), len(right.Rows))
	}
	// More glowworms cost more time at fixed dims (compare L=100 vs
	// L=300 at region dims 2).
	var t100, t300 float64
	for i, row := range left.Rows {
		if row[0] == "2" && row[1] == "100" {
			t100 = cell(t, left, i, 2)
		}
		if row[0] == "2" && row[1] == "300" {
			t300 = cell(t, left, i, 2)
		}
	}
	if t300 <= t100 {
		t.Errorf("L=300 (%gs) not slower than L=100 (%gs)", t300, t100)
	}
}

func TestFig11SurrogateShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig11Surrogate(Small)
	if err != nil {
		t.Fatal(err)
	}
	right := findTable(t, rep, "rmse_vs_examples")
	// RMSE at the largest training size must beat the smallest, per
	// dimensionality.
	type key struct{ dims string }
	first := map[string]float64{}
	last := map[string]float64{}
	for i, row := range right.Rows {
		if _, seen := first[row[0]]; !seen {
			first[row[0]] = cell(t, right, i, 2)
		}
		last[row[0]] = cell(t, right, i, 2)
	}
	for dims, f := range first {
		if last[dims] >= f {
			t.Errorf("dims=%s: RMSE did not improve with training size (%g -> %g)", dims, f, last[dims])
		}
	}
	// The left panel exists and spans several quality levels.
	left := findTable(t, rep, "iou_vs_rmse")
	if len(left.Rows) < 5 {
		t.Fatalf("left rows = %d", len(left.Rows))
	}
}

func TestFig12ComplexityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := Fig12Complexity(Small)
	if err != nil {
		t.Fatal(err)
	}
	tb := findTable(t, rep, "depth")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	// Train RMSE decreases with depth.
	for i := 1; i < len(tb.Rows); i++ {
		if cell(t, tb, i, 1) > cell(t, tb, i-1, 1)+1e-9 {
			t.Errorf("train RMSE rose from depth %s to %s", tb.Rows[i-1][0], tb.Rows[i][0])
		}
	}
	// Deepest model beats the shallowest on CV error too.
	if cell(t, tb, len(tb.Rows)-1, 2) >= cell(t, tb, 0, 2) {
		t.Error("CV RMSE did not improve from depth 2 to 8")
	}
}

func TestHARStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	rep, err := HARStudy(Small)
	if err != nil {
		t.Fatal(err)
	}
	regions := findTable(t, rep, "regions")
	if len(regions.Rows) == 0 {
		t.Fatal("no high-ratio regions found")
	}
	ok := 0
	for _, row := range regions.Rows {
		if row[4] == "true" {
			ok++
		}
	}
	if frac := float64(ok) / float64(len(regions.Rows)); frac < 0.5 {
		t.Errorf("HAR compliance = %.2f, want >= 0.5", frac)
	}
}
