package gso

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"surf/internal/geom"
)

// parityCase is one configuration run through both RunContext and
// runReference.
type parityCase struct {
	params Params
	bounds geom.Rect
	obj    Objective
	weight bool
	walk   float64
	init   [][]float64
}

// bumpsFn is a two-bump landscape over the bounds' normalized
// coordinates, undefined on a slab near the lower edge of dimension 0
// so that InvalidWalk and the dim-worm rules are exercised. With inf
// set, a corner pocket returns +Inf and a slab beside the undefined one
// returns -Inf, both with ok=true, so the luciferin order meets +Inf,
// -Inf and (once a +Inf worm crosses into the slab) NaN.
func bumpsFn(bounds geom.Rect, inf bool) func(pos []float64) (float64, bool) {
	return func(pos []float64) (float64, bool) {
		u0 := (pos[0] - bounds.Min[0]) / (bounds.Max[0] - bounds.Min[0])
		if u0 < 0.25 {
			return 0, false
		}
		if inf && u0 > 0.9 {
			return math.Inf(1), true
		}
		if inf && u0 < 0.3 {
			return math.Inf(-1), true
		}
		var a, b float64
		for k, v := range pos {
			u := (v - bounds.Min[k]) / (bounds.Max[k] - bounds.Min[k])
			a += (u - 0.4) * (u - 0.4)
			b += (u - 0.75) * (u - 0.75)
		}
		return math.Exp(-a/0.02) + 0.8*math.Exp(-b/0.01), true
	}
}

// batchFn exposes a plain fitness function through BatchObjective.
type batchFn func(pos []float64) (float64, bool)

func (f batchFn) Fitness(pos []float64) (float64, bool) { return f(pos) }
func (f batchFn) NewBatchEvaluator() BatchEvaluator     { return batchFnEval(f) }

type batchFnEval func(pos []float64) (float64, bool)

func (f batchFnEval) EvaluateBatch(pos [][]float64, fitness []float64, valid []bool) {
	for i, p := range pos {
		fitness[i], valid[i] = f(p)
	}
}

// parityWeight is a selection weight that is zero on part of the
// space (clamped from negative), so zero-weight neighbours occur.
func parityWeight(bounds geom.Rect) SelectionWeight {
	return func(pos []float64) float64 {
		u := (pos[len(pos)-1] - bounds.Min[len(pos)-1]) / (bounds.Max[len(pos)-1] - bounds.Min[len(pos)-1])
		return math.Sin(7*u) + 0.3
	}
}

// wideBounds is [0, 100·(k+1)] on dimension k.
func wideBounds(dims int) geom.Rect {
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for k := range hi {
		hi[k] = 100 * float64(k+1)
	}
	return geom.NewRect(lo, hi)
}

func (c parityCase) opts(observer func(IterStats, SwarmView)) Options {
	o := Options{InvalidWalk: c.walk, InitPositions: c.init, RecordHistory: true, Observer: observer}
	if c.weight {
		o.Weight = parityWeight(c.bounds)
	}
	return o
}

// checkParity runs c through both implementations and reports the
// first difference in the swarm, its telemetry or the observed views.
func checkParity(t *testing.T, c parityCase) {
	t.Helper()
	var gotViews, wantViews []string
	record := func(dst *[]string) func(IterStats, SwarmView) {
		return func(it IterStats, v SwarmView) {
			*dst = append(*dst, fmt.Sprintf("%d %x %x %x %v", it.Iteration,
				bits2(v.Positions), bits(v.Fitness), bits(v.Luciferin), v.Valid))
		}
	}
	ctx := context.Background()
	want, werr := runReference(ctx, c.params, c.bounds, c.obj, c.opts(record(&wantViews)))
	got, gerr := RunContext(ctx, c.params, c.bounds, c.obj, c.opts(record(&gotViews)))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("errors differ: got %v, want %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	for i := range want.Positions {
		if g, w := bits(got.Positions[i]), bits(want.Positions[i]); !slices.Equal(g, w) {
			t.Fatalf("position[%d] = %v, want %v", i, got.Positions[i], want.Positions[i])
		}
	}
	if !slices.Equal(bits(got.Luciferin), bits(want.Luciferin)) {
		t.Fatalf("luciferin = %v, want %v", got.Luciferin, want.Luciferin)
	}
	if !slices.Equal(bits(got.Fitness), bits(want.Fitness)) {
		t.Fatalf("fitness = %v, want %v", got.Fitness, want.Fitness)
	}
	if !slices.Equal(got.Valid, want.Valid) {
		t.Fatalf("valid = %v, want %v", got.Valid, want.Valid)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace has %d entries, want %d", len(got.Trace), len(want.Trace))
	}
	evals := c.params.Glowworms
	for k, w := range want.Trace {
		if g := got.Trace[k]; !sameStats(g, w) {
			t.Fatalf("trace[%d] = %+v, want %+v", k, g, w)
		}
		if k < len(want.Trace)-1 {
			evals += w.Moved
		}
	}
	if got.Evaluations != evals {
		t.Fatalf("evaluations = %d, want %d", got.Evaluations, evals)
	}
	if fmt.Sprint(bits3(got.History)) != fmt.Sprint(bits3(want.History)) {
		t.Fatal("history differs")
	}
	if len(gotViews) != len(wantViews) {
		t.Fatalf("observer fired %d times, want %d", len(gotViews), len(wantViews))
	}
	for k := range wantViews {
		if gotViews[k] != wantViews[k] {
			t.Fatalf("observer view %d differs", k)
		}
	}
}

// sameStats reports whether two trace entries are bit-identical.
func sameStats(a, b IterStats) bool {
	return a.Iteration == b.Iteration && a.Moved == b.Moved &&
		math.Float64bits(a.MeanFitness) == math.Float64bits(b.MeanFitness) &&
		math.Float64bits(a.MeanLuciferin) == math.Float64bits(b.MeanLuciferin) &&
		math.Float64bits(a.ValidFrac) == math.Float64bits(b.ValidFrac)
}

func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

func bits2(v [][]float64) [][]uint64 {
	out := make([][]uint64, len(v))
	for i, x := range v {
		out[i] = bits(x)
	}
	return out
}

func bits3(v [][][]float64) [][][]uint64 {
	out := make([][][]uint64, len(v))
	for i, x := range v {
		out[i] = bits2(x)
	}
	return out
}

// TestSwarmParity: skipping unmoved worms and the early-exit neighbour
// test must leave every swarm bit-identical to the reference loop,
// across dimensions, bound scales, weights, InvalidWalk, worker counts
// and objective shapes.
func TestSwarmParity(t *testing.T) {
	for _, dims := range []int{2, 4, 6, 8} {
		for _, wide := range []bool{false, true} {
			bounds := geom.Unit(dims)
			if wide {
				bounds = wideBounds(dims)
			}
			for _, objKind := range []string{"scalar", "batch", "inf"} {
				fn := bumpsFn(bounds, objKind == "inf")
				var obj Objective = ObjectiveFunc(fn)
				if objKind != "scalar" {
					obj = batchFn(fn)
				}
				for _, weight := range []bool{false, true} {
					for _, walk := range []float64{0, 1} {
						for _, workers := range []int{1, 3} {
							name := fmt.Sprintf("d%d/wide=%v/%s/weight=%v/walk=%g/w%d", dims, wide, objKind, weight, walk, workers)
							t.Run(name, func(t *testing.T) {
								p := DefaultParams()
								p.Glowworms = 70
								p.MaxIters = 25
								p.Workers = workers
								p.Seed = uint64(dims*100 + workers)
								checkParity(t, parityCase{params: p, bounds: bounds, obj: obj, weight: weight, walk: walk})
							})
						}
					}
				}
			}
		}
	}
}

// TestSwarmParityDegenerate covers inputs where the early-exit test
// must stand down: non-finite initial coordinates, radii whose square
// is not a normal float, coincident worms at zero radius, and a
// plateau stop.
func TestSwarmParityDegenerate(t *testing.T) {
	bounds := geom.Unit(3)
	fn := bumpsFn(bounds, false)
	p := DefaultParams()
	p.Glowworms = 40
	p.MaxIters = 30

	nan := make([][]float64, p.Glowworms)
	for i := range nan {
		u := float64(i) / float64(p.Glowworms)
		nan[i] = []float64{0.3 + 0.6*u, u, 1 - u}
	}
	// An invalid worm whose later coordinate is NaN: its distance to
	// every brighter worm is NaN, which the plain test counts as in
	// range, even though the first coordinate alone already puts them
	// out of range.
	nan[5] = []float64{0, math.NaN(), 0.5}
	nan[9][2] = math.Inf(1)
	t.Run("non-finite-init", func(t *testing.T) {
		checkParity(t, parityCase{params: p, bounds: bounds, obj: ObjectiveFunc(fn), walk: 1, init: nan})
	})
	// Radii whose square underflows to zero or to a subnormal.
	for _, sensor := range []float64{1e-200, 1e-160} {
		t.Run(fmt.Sprintf("radius=%g", sensor), func(t *testing.T) {
			ps := p
			ps.SensorRange = sensor
			checkParity(t, parityCase{params: ps, bounds: bounds, obj: ObjectiveFunc(fn), walk: 1})
		})
	}
	// A landscape rising into a corner with long steps: worms clamp
	// onto the exact corner at different times, so coincident worms of
	// different brightness meet with radii shrunk to zero.
	t.Run("corner", func(t *testing.T) {
		pc := p
		pc.StepSize = 0.5
		corner := ObjectiveFunc(func(pos []float64) (float64, bool) { return pos[0] + pos[1] + pos[2], true })
		checkParity(t, parityCase{params: pc, bounds: bounds, obj: corner})
	})
	t.Run("plateau", func(t *testing.T) {
		pc := p
		pc.MaxIters = 200
		pc.ConvergeWindow = 5
		pc.ConvergeEps = 1e-3
		checkParity(t, parityCase{params: pc, bounds: bounds, obj: batchFn(fn), weight: true})
	})
}

// FuzzSwarmParity drives random swarm shapes through both
// implementations. flags selects wide bounds, a batch objective, the
// +Inf pocket, the selection weight, InvalidWalk and three workers.
func FuzzSwarmParity(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(64), uint8(6), uint8(0b111111))
	f.Add(uint64(3), uint8(9), uint8(8), uint8(0b011010))
	f.Fuzz(func(t *testing.T, seed uint64, l, dims, flags uint8) {
		d := 1 + int(dims)%8
		bounds := geom.Unit(d)
		if flags&1 != 0 {
			bounds = wideBounds(d)
		}
		fn := bumpsFn(bounds, flags&4 != 0)
		var obj Objective = ObjectiveFunc(fn)
		if flags&2 != 0 {
			obj = batchFn(fn)
		}
		p := DefaultParams()
		p.Glowworms = 2 + int(l)%80
		p.MaxIters = 15
		p.Seed = seed
		if flags&32 != 0 {
			p.Workers = 3
		}
		var walk float64
		if flags&16 != 0 {
			walk = 1
		}
		checkParity(t, parityCase{params: p, bounds: bounds, obj: obj, weight: flags&8 != 0, walk: walk})
	})
}

// TestCancelInsideIteration: cancellation that arrives during an
// iteration's evaluation stops the run before that iteration's
// movement phase completes, so the Observer never fires. A batch
// objective is handed the swarm in evalChunk-row chunks with a
// context check between them, so a cancel inside the first chunk
// keeps the later chunks from running.
func TestCancelInsideIteration(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obj := ObjectiveFunc(func(pos []float64) (float64, bool) {
			cancel()
			return pos[0], true
		})
		fired := 0
		opts := Options{Observer: func(IterStats, SwarmView) { fired++ }}
		p := DefaultParams()
		p.Glowworms = 200
		_, err := RunContext(ctx, p, geom.Unit(2), obj, opts)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if fired != 0 {
			t.Fatalf("observer fired %d times after cancellation", fired)
		}
	})
	t.Run("batch-chunk", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var chunks, rows int
		obj := chunkCounter{calls: &chunks, fn: func(pos []float64) (float64, bool) {
			if rows++; rows == 1 {
				cancel()
			}
			return pos[0], true
		}}
		fired := 0
		opts := Options{Observer: func(IterStats, SwarmView) { fired++ }}
		p := DefaultParams()
		p.Glowworms = 4 * evalChunk
		_, err := RunContext(ctx, p, geom.Unit(2), obj, opts)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if chunks != 1 || rows != evalChunk {
			t.Fatalf("evaluated %d chunks (%d rows) after cancelling in the first; want 1 (%d rows)", chunks, rows, evalChunk)
		}
		if fired != 0 {
			t.Fatalf("observer fired %d times after cancellation", fired)
		}
	})
}

// chunkCounter is a batch objective that counts EvaluateBatch calls.
type chunkCounter struct {
	fn    func(pos []float64) (float64, bool)
	calls *int
}

func (c chunkCounter) Fitness(pos []float64) (float64, bool) { return c.fn(pos) }
func (c chunkCounter) NewBatchEvaluator() BatchEvaluator     { return c }

func (c chunkCounter) EvaluateBatch(pos [][]float64, fitness []float64, valid []bool) {
	*c.calls++
	batchFnEval(c.fn).EvaluateBatch(pos, fitness, valid)
}
