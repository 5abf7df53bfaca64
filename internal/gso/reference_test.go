package gso

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"surf/internal/geom"
)

// runReference is the plain synchronous GSO loop that RunContext
// optimizes: every worm is scored and weighted every iteration, every
// worm scans every other worm in the canonical luciferin order and
// keeps the strictly brighter ones within a full square-root distance,
// and every worm moves against the start-of-iteration swarm into a
// second buffer, drawing from the run's one random stream in index
// order. It is the parity oracle for TestSwarmParity and
// FuzzSwarmParity — RunContext must reproduce its swarm bit for bit.
// Do not optimize it.
func runReference(ctx context.Context, p Params, bounds geom.Rect, obj Objective, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := bounds.Dims()
	if n == 0 {
		return nil, errors.New("gso: zero-dimensional bounds")
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x6c62272e07bb0142))

	extent := make([]float64, n)
	var meanExtent float64
	for j := 0; j < n; j++ {
		extent[j] = bounds.Max[j] - bounds.Min[j]
		meanExtent += extent[j]
	}
	meanExtent /= float64(n)
	if meanExtent <= 0 {
		meanExtent = 1
	}
	step := p.StepSize * meanExtent

	// Domain diagonal bounds the sensor range by default.
	var diag float64
	for j := 0; j < n; j++ {
		diag += extent[j] * extent[j]
	}
	diag = math.Sqrt(diag)
	sensor := p.SensorRange
	if sensor == 0 {
		sensor = diag
	}
	r0 := p.InitRadius
	if r0 == 0 {
		r0 = InitialRadius(p.Glowworms, n, meanExtent)
	}
	if r0 > sensor {
		r0 = sensor
	}

	L := p.Glowworms
	pos := make([][]float64, L)
	if opts.InitPositions != nil {
		if len(opts.InitPositions) != L {
			return nil, fmt.Errorf("gso: %d initial positions for %d glowworms", len(opts.InitPositions), L)
		}
		for i, ip := range opts.InitPositions {
			if len(ip) != n {
				return nil, fmt.Errorf("gso: initial position %d has dimension %d, want %d", i, len(ip), n)
			}
			pos[i] = append([]float64(nil), ip...)
		}
	} else {
		for i := range pos {
			pos[i] = make([]float64, n)
			randomPoint(rng, bounds, pos[i])
		}
	}

	luc := make([]float64, L)
	radius := make([]float64, L)
	fitness := make([]float64, L)
	valid := make([]bool, L)
	for i := range luc {
		luc[i] = p.InitLuciferin
		radius[i] = r0
	}

	res := &Result{}
	if opts.RecordHistory {
		res.History = make([][][]float64, L)
	}

	var neighbors []int
	var weights []float64
	var plateau []float64
	var wcache []float64
	if opts.Weight != nil {
		wcache = make([]float64, L)
	}

	for t := 0; t < p.MaxIters; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: fitness evaluation, one Fitness call per worm,
		// followed by the luciferin update. Invalid positions decay
		// only, emulating the undefined log objective (paper Section
		// V-F).
		for i := range pos {
			fitness[i], valid[i] = obj.Fitness(pos[i])
		}
		res.Evaluations += L
		var sumFit float64
		var nValid int
		for i := 0; i < L; i++ {
			if valid[i] {
				luc[i] = (1-p.Rho)*luc[i] + p.Gamma*fitness[i]
				sumFit += fitness[i]
				nValid++
			} else {
				fitness[i] = math.NaN()
				luc[i] = (1 - p.Rho) * luc[i]
			}
		}

		// Phase 2: synchronous movement. Selection weights (e.g. KDE
		// box masses) are evaluated once per particle per iteration
		// against the start-of-phase positions, rather than per
		// candidate pair; every worm reads pos, luc and wcache as they
		// stand and writes only next[i].
		if opts.Weight != nil {
			for i := 0; i < L; i++ {
				wcache[i] = math.Max(0, opts.Weight(pos[i]))
			}
		}
		// The canonical order: brightest first, NaN last, ties by
		// index. Neighbours are collected, and their weights summed, in
		// this order.
		order := make([]int, L)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			la, lb := luc[order[a]], luc[order[b]]
			return la > lb || !math.IsNaN(la) && math.IsNaN(lb)
		})
		next := make([][]float64, L)
		moved := 0
		for i := 0; i < L; i++ {
			next[i] = append([]float64(nil), pos[i]...)
			neighbors = neighbors[:0]
			weights = weights[:0]
			var totalW float64
			for _, j := range order {
				if !(luc[j] > luc[i]) {
					continue
				}
				if dist(pos[i], pos[j]) > radius[i] {
					continue
				}
				w := luc[j] - luc[i]
				if opts.Weight != nil {
					w *= wcache[j]
				}
				if w <= 0 {
					continue
				}
				neighbors = append(neighbors, j)
				weights = append(weights, w)
				totalW += w
			}
			// Adaptive radius uses the pre-move neighbourhood size.
			radius[i] = math.Min(sensor, math.Max(0, radius[i]+p.Beta*(float64(p.DesiredNeighbors)-float64(len(neighbors)))))
			if len(neighbors) == 0 || totalW <= 0 {
				if opts.InvalidWalk > 0 && !valid[i] {
					// Diffuse constraint-violating stragglers.
					for j := 0; j < n; j++ {
						delta := (rng.Float64()*2 - 1) * step * opts.InvalidWalk
						next[i][j] = clamp(pos[i][j]+delta, bounds.Min[j], bounds.Max[j])
					}
					moved++
				}
				continue
			}
			// Roulette selection over (ℓ_j − ℓ_i) · weight.
			pick := rng.Float64() * totalW
			sel := neighbors[len(neighbors)-1]
			var cum float64
			for k, w := range weights {
				cum += w
				if pick <= cum {
					sel = neighbors[k]
					break
				}
			}
			d := dist(pos[i], pos[sel])
			if d == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				next[i][j] = pos[i][j] + step*(pos[sel][j]-pos[i][j])/d
				next[i][j] = clamp(next[i][j], bounds.Min[j], bounds.Max[j])
			}
			moved++
		}
		pos = next

		meanFit := math.NaN()
		if nValid > 0 {
			meanFit = sumFit / float64(nValid)
		}
		var meanLuc float64
		for _, v := range luc {
			meanLuc += v
		}
		meanLuc /= float64(L)
		it := IterStats{
			Iteration:     t,
			MeanFitness:   meanFit,
			MeanLuciferin: meanLuc,
			ValidFrac:     float64(nValid) / float64(L),
			Moved:         moved,
		}
		res.Trace = append(res.Trace, it)
		if opts.Observer != nil {
			opts.Observer(it, SwarmView{Positions: pos, Fitness: fitness, Valid: valid, Luciferin: luc})
		}
		if opts.RecordHistory {
			for i := 0; i < L; i++ {
				res.History[i] = append(res.History[i], append([]float64(nil), pos[i]...))
			}
		}
		res.Iterations = t + 1

		if p.ConvergeWindow > 0 {
			plateau = append(plateau, meanLuc)
			if len(plateau) > p.ConvergeWindow {
				plateau = plateau[1:]
				lo, hi := plateau[0], plateau[0]
				for _, v := range plateau {
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
				if hi-lo < p.ConvergeEps {
					break
				}
			}
		}
	}

	res.Positions = pos
	res.Fitness = fitness
	res.Valid = valid
	res.Luciferin = luc
	return res, nil
}
