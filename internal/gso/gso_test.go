package gso

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"surf/internal/geom"
)

// peaksObjective is a classic multimodal test function: a sum of k
// Gaussian bumps in [0,1]^d. Every bump is a local optimum GSO should
// discover.
type peaksObjective struct {
	centers [][]float64
	sigma   float64
}

func (o *peaksObjective) Fitness(pos []float64) (float64, bool) {
	var best float64
	for _, c := range o.centers {
		var d2 float64
		for j := range pos {
			d := pos[j] - c[j]
			d2 += d * d
		}
		v := math.Exp(-d2 / (2 * o.sigma * o.sigma))
		if v > best {
			best = v
		}
	}
	return best, true
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Glowworms = 1 },
		func(p *Params) { p.MaxIters = 0 },
		func(p *Params) { p.Rho = 0 },
		func(p *Params) { p.Rho = 1 },
		func(p *Params) { p.Gamma = 0 },
		func(p *Params) { p.Beta = 0 },
		func(p *Params) { p.DesiredNeighbors = 0 },
		func(p *Params) { p.StepSize = 0 },
		func(p *Params) { p.InitRadius = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 0, true })
	if _, err := Run(DefaultParams(), geom.Rect{}, obj, Options{}); err == nil {
		t.Error("expected error for zero-dimensional bounds")
	}
	p := DefaultParams()
	if _, err := Run(p, geom.Unit(2), obj, Options{InitPositions: [][]float64{{0, 0}}}); err == nil {
		t.Error("expected error for init position count mismatch")
	}
	if _, err := Run(p, geom.Unit(2), obj, Options{InitPositions: make2d(p.Glowworms, 1)}); err == nil {
		t.Error("expected error for init position dimension mismatch")
	}
}

func make2d(n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	return out
}

func TestConvergesToSinglePeak(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.5, 0.5}}, sigma: 0.15}
	p := DefaultParams()
	p.MaxIters = 150
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	for _, pos := range res.Positions {
		if distTo(pos, []float64{0.5, 0.5}) < 0.15 {
			near++
		}
	}
	if frac := float64(near) / float64(p.Glowworms); frac < 0.5 {
		t.Errorf("only %.0f%% of worms near the single peak, want >= 50%%", frac*100)
	}
}

func TestCapturesMultiplePeaks(t *testing.T) {
	centers := [][]float64{{0.2, 0.2}, {0.8, 0.8}, {0.2, 0.8}}
	obj := &peaksObjective{centers: centers, sigma: 0.1}
	p := DefaultParams()
	p.Glowworms = 150
	p.MaxIters = 200
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every peak should capture some worms — the multimodal property
	// PSO lacks.
	for ci, c := range centers {
		captured := 0
		for _, pos := range res.Positions {
			if distTo(pos, c) < 0.15 {
				captured++
			}
		}
		if captured == 0 {
			t.Errorf("peak %d at %v captured no worms", ci, c)
		}
	}
}

func TestInvalidRegionsIsolated(t *testing.T) {
	// Objective undefined on the left half; a single peak on the
	// right. Worms starting left must go dim and not form clusters.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) {
		if pos[0] < 0.5 {
			return 0, false
		}
		d := pos[0] - 0.75
		return math.Exp(-d * d / 0.005), true
	})
	p := DefaultParams()
	p.MaxIters = 120
	res, err := Run(p, geom.Unit(1), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid-side worms should have near-zero luciferin (decayed from
	// ℓ0) unless they migrated right.
	for i, pos := range res.Positions {
		if pos[0] < 0.4 && res.Luciferin[i] > 1 {
			t.Errorf("worm %d stuck invalid at %v with bright luciferin %g", i, pos, res.Luciferin[i])
		}
	}
	// And the final mean valid fraction should not have collapsed.
	last := res.Trace[len(res.Trace)-1]
	if last.ValidFrac == 0 {
		t.Error("no worm ever reached the valid space")
	}
}

func TestLuciferinDecayWithoutSignal(t *testing.T) {
	// All positions invalid: luciferin must decay toward zero.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 0, false })
	p := DefaultParams()
	p.MaxIters = 50
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Luciferin {
		want := p.InitLuciferin * math.Pow(1-p.Rho, float64(p.MaxIters))
		if math.Abs(l-want) > 1e-9 {
			t.Fatalf("worm %d luciferin = %g, want exact decay %g", i, l, want)
		}
	}
	if res.Trace[len(res.Trace)-1].Moved != 0 {
		t.Error("worms moved with no luciferin differences")
	}
}

func TestDeterminism(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.3, 0.7}}, sigma: 0.2}
	p := DefaultParams()
	p.MaxIters = 30
	r1, _ := Run(p, geom.Unit(2), obj, Options{})
	r2, _ := Run(p, geom.Unit(2), obj, Options{})
	for i := range r1.Positions {
		for j := range r1.Positions[i] {
			if r1.Positions[i][j] != r2.Positions[i][j] {
				t.Fatal("same seed must give identical trajectories")
			}
		}
	}
	p.Seed = 2
	r3, _ := Run(p, geom.Unit(2), obj, Options{})
	same := true
	for i := range r1.Positions {
		for j := range r1.Positions[i] {
			if r1.Positions[i][j] != r3.Positions[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPositionsStayInBounds(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.99, 0.99}}, sigma: 0.3}
	bounds := geom.NewRect([]float64{-1, 0}, []float64{1, 2})
	p := DefaultParams()
	p.MaxIters = 80
	res, err := Run(p, bounds, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range res.Positions {
		if !bounds.Contains(pos) {
			t.Errorf("worm %d escaped bounds: %v", i, pos)
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	// Constant objective: luciferin converges to γ·J/ρ quickly, so a
	// plateau window should stop the run well before MaxIters.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 1, true })
	p := DefaultParams()
	p.MaxIters = 500
	p.ConvergeWindow = 10
	p.ConvergeEps = 1e-9
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 500 {
		t.Errorf("early stopping did not trigger: %d iterations", res.Iterations)
	}
	// Luciferin fixed point is γ·J/ρ = 0.6/0.4 = 1.5.
	for _, l := range res.Luciferin {
		if math.Abs(l-1.5) > 1e-3 {
			t.Errorf("luciferin %g, want fixed point 1.5", l)
		}
	}
}

func TestSelectionWeightBias(t *testing.T) {
	// Two identical peaks; weight function suppresses the right one.
	// Selection re-weighting (Eq. 8) should skew convergence left.
	centers := [][]float64{{0.2}, {0.8}}
	obj := &peaksObjective{centers: centers, sigma: 0.08}
	p := DefaultParams()
	p.Glowworms = 200
	p.MaxIters = 150
	count := func(weight SelectionWeight, seed uint64) (left, right int) {
		pp := p
		pp.Seed = seed
		res, err := Run(pp, geom.Unit(1), obj, Options{Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range res.Positions {
			if math.Abs(pos[0]-0.2) < 0.1 {
				left++
			}
			if math.Abs(pos[0]-0.8) < 0.1 {
				right++
			}
		}
		return left, right
	}
	suppressRight := func(pos []float64) float64 {
		if pos[0] > 0.5 {
			return 0.01
		}
		return 1
	}
	var lw, rw int
	for seed := uint64(1); seed <= 3; seed++ {
		l, r := count(suppressRight, seed)
		lw += l
		rw += r
	}
	if lw <= rw {
		t.Errorf("weighted runs: left %d, right %d; want left-biased", lw, rw)
	}
}

func TestHistoryRecording(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.5}}, sigma: 0.2}
	p := DefaultParams()
	p.Glowworms = 10
	p.MaxIters = 20
	res, err := Run(p, geom.Unit(1), obj, Options{RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Fatalf("history for %d worms, want 10", len(res.History))
	}
	for i, h := range res.History {
		if len(h) != res.Iterations {
			t.Errorf("worm %d history %d entries for %d iterations", i, len(h), res.Iterations)
		}
	}
}

func TestTraceShape(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.5, 0.5}}, sigma: 0.2}
	p := DefaultParams()
	p.MaxIters = 25
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 25 || res.Iterations != 25 {
		t.Fatalf("trace %d entries, iterations %d", len(res.Trace), res.Iterations)
	}
	// Every worm is scored once up front; afterwards only the worms
	// that moved are re-scored, and the last iteration's moves are
	// never scored.
	want := p.Glowworms
	for _, it := range res.Trace[:res.Iterations-1] {
		want += it.Moved
	}
	if res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d (L + moves before the last iteration)", res.Evaluations, want)
	}
	// Mean fitness should improve from start to finish on a unimodal
	// landscape.
	if res.Trace[len(res.Trace)-1].MeanFitness <= res.Trace[0].MeanFitness {
		t.Errorf("mean fitness did not improve: %g -> %g",
			res.Trace[0].MeanFitness, res.Trace[len(res.Trace)-1].MeanFitness)
	}
}

func TestInitialRadius(t *testing.T) {
	// Monotonicity: more worms -> smaller radius; more dims -> larger.
	r1 := InitialRadius(50, 2, 1)
	r2 := InitialRadius(500, 2, 1)
	if r2 >= r1 {
		t.Errorf("radius should shrink with swarm size: %g vs %g", r1, r2)
	}
	r3 := InitialRadius(50, 8, 1)
	if r3 <= r1 {
		t.Errorf("radius should grow with dimensions: %g vs %g", r3, r1)
	}
	if InitialRadius(0, 0, 2.5) != 2.5 {
		t.Error("degenerate arguments should return the extent")
	}
	// Scales linearly with extent.
	if math.Abs(InitialRadius(50, 2, 2)-2*r1) > 1e-12 {
		t.Error("radius should scale with extent")
	}
}

func TestInitPositionsHonored(t *testing.T) {
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 0, false })
	p := DefaultParams()
	p.Glowworms = 4
	p.MaxIters = 1
	init := [][]float64{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.4, 0.4}}
	res, err := Run(p, geom.Unit(2), obj, Options{InitPositions: init})
	if err != nil {
		t.Fatal(err)
	}
	// With an all-invalid objective nothing moves, so positions stay.
	for i := range init {
		if res.Positions[i][0] != init[i][0] {
			t.Errorf("worm %d moved from its init position", i)
		}
	}
}

func distTo(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestParallelWorkersMatchSequential: the swarm is a function of the
// seed alone. Sharding the evaluation over 1, 2 or 3 workers (or 8,
// more than this swarm's shards need) gives bit-identical positions,
// fitness, luciferin and trace.
func TestParallelWorkersMatchSequential(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.3, 0.3}, {0.7, 0.7}}, sigma: 0.1}
	p := DefaultParams()
	p.MaxIters = 60
	p.Workers = 1
	seq, err := Run(p, geom.Unit(2), obj, Options{InvalidWalk: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		p.Workers = workers
		par, err := Run(p, geom.Unit(2), obj, Options{InvalidWalk: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Positions {
			if !slices.Equal(bits(seq.Positions[i]), bits(par.Positions[i])) {
				t.Fatalf("workers=%d: position[%d] = %v, want %v", workers, i, par.Positions[i], seq.Positions[i])
			}
		}
		if !slices.Equal(bits(seq.Fitness), bits(par.Fitness)) {
			t.Fatalf("workers=%d: fitness differs", workers)
		}
		if !slices.Equal(bits(seq.Luciferin), bits(par.Luciferin)) {
			t.Fatalf("workers=%d: luciferin differs", workers)
		}
		if !slices.EqualFunc(seq.Trace, par.Trace, sameStats) {
			t.Fatalf("workers=%d: trace differs", workers)
		}
		if seq.Evaluations != par.Evaluations {
			t.Errorf("workers=%d: evaluation counts differ: %d vs %d", workers, seq.Evaluations, par.Evaluations)
		}
	}
}

// TestScratchIndependentOfWorkers: a run's allocations do not grow
// with Workers. Only the evaluation shards over the workers, and its
// shards split the moved worms rather than each holding a swarm-sized
// buffer; the movement phase keeps one O(L) scratch set. Workers is
// client-set over HTTP, so it must not multiply a query's memory.
func TestScratchIndependentOfWorkers(t *testing.T) {
	obj := &peaksObjective{centers: [][]float64{{0.3, 0.3}}, sigma: 0.1}
	p := DefaultParams()
	p.Glowworms, p.MaxIters = 800, 3
	allocated := func(workers int) uint64 {
		p.Workers = workers
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(p, geom.Unit(2), obj, Options{InvalidWalk: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, many := allocated(1), allocated(100)
	if many > 2*one {
		t.Fatalf("Workers=100 allocated %d bytes, Workers=1 %d: scratch grows with Workers", many, one)
	}
}

func TestWorkersValidation(t *testing.T) {
	p := DefaultParams()
	p.Workers = -1
	if err := p.Validate(); err == nil {
		t.Error("expected error for negative Workers")
	}
}

func TestInvalidWalkDiscoversNarrowBasin(t *testing.T) {
	// Valid space is a narrow slab; every worm deliberately starts
	// far outside it. Canonical GSO freezes; InvalidWalk diffuses
	// until the slab is found.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) {
		if pos[0] < 0.70 || pos[0] > 0.75 {
			return 0, false
		}
		return 1, true
	})
	p := DefaultParams()
	p.Glowworms = 50
	p.MaxIters = 600
	p.Seed = 5
	init := make([][]float64, p.Glowworms)
	for i := range init {
		init[i] = []float64{0.5 * float64(i) / float64(p.Glowworms)}
	}
	res, err := Run(p, geom.Unit(1), obj, Options{InvalidWalk: 2, InitPositions: init})
	if err != nil {
		t.Fatal(err)
	}
	anyValid := false
	for _, ok := range res.Valid {
		if ok {
			anyValid = true
		}
	}
	if !anyValid {
		t.Error("random walk never discovered the valid slab")
	}
	// Canonical behaviour from the same all-invalid start: frozen.
	frozen, err := Run(p, geom.Unit(1), obj, Options{InitPositions: init})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, tr := range frozen.Trace {
		moved += tr.Moved
	}
	if moved != 0 {
		t.Errorf("canonical GSO moved %d times from an all-invalid start", moved)
	}
	for _, ok := range frozen.Valid {
		if ok {
			t.Error("canonical GSO cannot reach the slab without movement")
		}
	}
}
