//surf:deterministic (swarms are bit-identical for a seed, whatever Workers)

// Package gso implements Glowworm Swarm Optimization (Krishnanand &
// Ghose, Swarm Intelligence 2009), the evolutionary multimodal
// optimizer SuRF uses to locate many interesting regions at once
// (paper Section III-A).
//
// Each glowworm i carries a luciferin level ℓ_i updated as
//
//	ℓ_i(t) = (1−ρ)·ℓ_i(t−1) + γ·J(p_i(t))            (paper Eq. 6)
//
// and moves toward a probabilistically chosen brighter neighbour
// within an adaptive local-decision radius:
//
//	P{j} = (ℓ_j−ℓ_i) / Σ_k (ℓ_k−ℓ_i)                 (paper Eq. 7)
//	r_i(t+1) = min{r_s, max{0, r_i(t) + β(n_t − |N_i(t)|)}}
//
// Because interactions are local, the swarm splits into disjoint
// groups that converge to distinct local optima — exactly the
// behaviour needed when several regions satisfy the analyst's
// threshold.
//
// Two SuRF-specific extensions are supported:
//
//  1. The objective may be *undefined* at a position (the log-form
//     objective of paper Eq. 4 rejects regions violating the
//     constraint). Undefined positions receive no luciferin
//     enhancement, so their carriers go dim, stop attracting others
//     and are drawn toward the valid space — the isolation behaviour
//     of paper Fig. 7.
//  2. Neighbour selection probabilities can be re-weighted by an
//     arbitrary positive weight (SuRF passes the KDE box mass of the
//     candidate region, paper Eq. 8).
//
// # Synchronous update
//
// The swarm moves synchronously, as Krishnanand & Ghose define GSO:
// every worm chooses its neighbour against the start-of-iteration
// positions, luciferin, radii and selection weights, and writes its
// next position to a second buffer; the buffers swap when every worm
// has moved, so no worm's move depends on another's. Worms move in
// index order, drawing their roulette and walk numbers from the run's
// one random stream, which first placed the swarm. Neighbours are
// collected in the canonical luciferin order (brightest first, ties by
// index, NaN last), which fixes the roulette sums. Only the
// evaluations run on Workers goroutines, and they are bit-identical to
// a sequential evaluation, so the swarm is a function of the
// parameters and the seed alone: the same for any Workers.
//
// # Cost
//
// An iteration does only the work its result depends on, and the
// swarm stays bit-identical to the plain synchronous loop (a
// reference copy in the tests pins this for every seed and setting):
//
//   - Objectives and weights are pure functions of position, so only
//     worms that moved in the previous iteration are re-scored and
//     re-weighted; a worm with no brighter neighbour, or whose chosen
//     neighbour sits on it, keeps its fitness and weight. A run makes
//     L + Σ Moved objective calls rather than L·T.
//   - The swarm is sorted by luciferin once per iteration, so a worm
//     scans only the prefix of strictly brighter worms instead of
//     testing brightness for all L. Each candidate's squared distance
//     is summed over every coordinate without branches and compared
//     with the squared radius; only sums within a few ulps of r² take
//     the square root.
package gso

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"surf/internal/geom"
)

// Objective is a fitness function over positions in R^n. ok=false
// marks the position as outside the objective's domain (e.g. the log
// objective's argument was non-positive). It must be a pure function
// of the position: the optimizer scores a worm again only after it
// moves and reuses the last result otherwise.
type Objective interface {
	Fitness(pos []float64) (value float64, ok bool)
}

// ObjectiveFunc adapts a plain function to Objective.
type ObjectiveFunc func(pos []float64) (float64, bool)

// Fitness calls f.
func (f ObjectiveFunc) Fitness(pos []float64) (float64, bool) { return f(pos) }

// BatchObjective is an Objective that can evaluate many positions with
// one model pass (e.g. a boosted-tree surrogate compiled through an
// inference kernel backend — see internal/gbt/kernel). When the
// objective passed to Run implements it, each swarm iteration is
// evaluated as Workers contiguous shards, one BatchEvaluator per
// worker, each handed its shard in calls of at most 256 positions,
// instead of position-by-position Fitness calls. Batch results
// must be bit-for-bit equal to Fitness on each position, whichever
// kernel backend serves the batch.
type BatchObjective interface {
	Objective
	// NewBatchEvaluator returns a fresh evaluator owning its own
	// scratch buffers. The optimizer creates one per worker up front
	// and reuses it every iteration, so steady-state evaluation is
	// allocation-free.
	NewBatchEvaluator() BatchEvaluator
}

// BatchEvaluator evaluates one shard of positions, writing fitness[i],
// valid[i] for pos[i]. Each iteration's batch holds only the worms
// that moved, so its size varies (up to 256 positions a call); like
// Objective, results must depend on each position alone.
// Implementations may keep internal scratch and therefore must not be
// shared across goroutines; distinct evaluators must be safe to run
// concurrently.
type BatchEvaluator interface {
	EvaluateBatch(pos [][]float64, fitness []float64, valid []bool)
}

// SelectionWeight optionally re-weights the probability of selecting a
// neighbour at the given position (paper Eq. 8). Must return a
// non-negative value; nil disables re-weighting. It must be a pure
// function of the position: it is computed again only for worms that
// moved.
type SelectionWeight func(pos []float64) float64

// Params configure a GSO run. Zero value is invalid; start from
// DefaultParams.
type Params struct {
	// Glowworms is the swarm size L.
	Glowworms int
	// MaxIters is the iteration budget T.
	MaxIters int
	// Rho is the luciferin decay ρ.
	Rho float64
	// Gamma is the luciferin enhancement γ.
	Gamma float64
	// Beta is the neighbourhood radius adaptation rate β.
	Beta float64
	// InitLuciferin is ℓ_0, every worm's starting luciferin.
	InitLuciferin float64
	// DesiredNeighbors is n_t, the target neighbourhood size.
	DesiredNeighbors int
	// StepSize is the movement step s, as a fraction of the average
	// domain extent (the canonical s=0.03 assumes a unit-ish domain).
	StepSize float64
	// InitRadius is r_0. When 0, the rule of paper Section V-G is
	// used: r_0 = (1 − (1/2)^(1/L))^(1/n) scaled by the domain extent.
	InitRadius float64
	// SensorRange is r_s, the hard cap on the decision radius. When 0
	// it defaults to the domain diagonal (no effective cap).
	SensorRange float64
	// ConvergeWindow enables early stopping: the run halts when the
	// mean luciferin changes by less than ConvergeEps over this many
	// iterations. 0 disables.
	ConvergeWindow int
	// ConvergeEps is the plateau threshold for early stopping.
	ConvergeEps float64
	// Workers runs each iteration's fitness evaluations on this many
	// goroutines (0 or 1 = sequential; swarms smaller than 2·Workers
	// also run sequentially). The worms that moved are split into
	// Workers contiguous shards; the movement phase runs on the
	// optimizer's goroutine. Results are bit-identical to the
	// sequential run. The objective must be safe for concurrent calls
	// (the boosted-tree surrogate is); SelectionWeight is always called
	// from the optimizer's goroutine. Objectives implementing
	// BatchObjective are evaluated shard-at-a-time with one
	// preallocated evaluator per worker.
	Workers int
	// Seed drives initialization and neighbour selection.
	Seed uint64
}

// DefaultParams returns the constants of the GSO paper used throughout
// SuRF's experiments: ρ=0.4, γ=0.6, β=0.08, n_t=5, ℓ0=5, s=0.03,
// L=100, T=100.
func DefaultParams() Params {
	return Params{
		Glowworms:        100,
		MaxIters:         100,
		Rho:              0.4,
		Gamma:            0.6,
		Beta:             0.08,
		InitLuciferin:    5,
		DesiredNeighbors: 5,
		StepSize:         0.03,
		Seed:             1,
	}
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	switch {
	case p.Glowworms < 2:
		return errors.New("gso: need at least 2 glowworms")
	case p.MaxIters < 1:
		return errors.New("gso: MaxIters must be >= 1")
	case p.Rho <= 0 || p.Rho >= 1:
		return fmt.Errorf("gso: Rho %g out of (0,1)", p.Rho)
	case p.Gamma <= 0:
		return errors.New("gso: Gamma must be > 0")
	case p.Beta <= 0:
		return errors.New("gso: Beta must be > 0")
	case p.DesiredNeighbors < 1:
		return errors.New("gso: DesiredNeighbors must be >= 1")
	case p.StepSize <= 0:
		return errors.New("gso: StepSize must be > 0")
	case p.InitRadius < 0 || p.SensorRange < 0:
		return errors.New("gso: radii must be >= 0")
	case p.Workers < 0:
		return errors.New("gso: Workers must be >= 0")
	}
	return nil
}

// IterStats is one iteration's convergence telemetry (drives the
// paper's Fig. 9 E[J] curves).
type IterStats struct {
	// Iteration index (0-based).
	Iteration int
	// MeanFitness is E[J] over worms whose position is currently
	// valid; NaN when no worm is valid.
	MeanFitness float64
	// MeanLuciferin is the swarm's average luciferin.
	MeanLuciferin float64
	// ValidFrac is the fraction of worms at valid positions.
	ValidFrac float64
	// Moved is how many worms moved this iteration.
	Moved int
}

// Result is the outcome of a GSO run.
type Result struct {
	// Positions are the final particle positions.
	Positions [][]float64
	// Fitness holds each particle's last evaluated fitness (NaN when
	// invalid).
	Fitness []float64
	// Valid flags particles whose final position is in the
	// objective's domain.
	Valid []bool
	// Luciferin holds final luciferin levels.
	Luciferin []float64
	// Iterations actually executed (≤ MaxIters with early stopping).
	Iterations int
	// Evaluations counts objective calls: every worm once up front,
	// then each worm that moved in an iteration before the last, so
	// L + Σ Trace[t].Moved for t < Iterations−1.
	Evaluations int
	// Trace is per-iteration telemetry.
	Trace []IterStats
	// History records each particle's positions over time when
	// Options.RecordHistory was set (paper Fig. 1's trails).
	History [][][]float64
}

// SwarmView is a read-only window onto the optimizer's working state,
// handed to Options.Observer once per iteration. All slices alias the
// optimizer's live buffers: they are valid only for the duration of
// the callback and must be copied if retained, and must not be
// mutated. Fitness, Valid and Luciferin are the values every worm
// moved against: the evaluation at the start-of-iteration positions.
// Positions are the swarm after this iteration's synchronous move
// (worms drift at most one step between evaluation and observation).
type SwarmView struct {
	Positions [][]float64
	Fitness   []float64
	Valid     []bool
	Luciferin []float64
}

// Options tune run behaviour beyond the core parameters.
type Options struct {
	// Weight re-weights neighbour selection (paper Eq. 8); nil
	// disables.
	Weight SelectionWeight
	// Observer, when non-nil, is invoked synchronously at the end of
	// every iteration with that iteration's telemetry (the same entry
	// appended to Result.Trace) and a live view of the swarm. The
	// observer is passive — it cannot perturb the run, so results are
	// bit-identical with or without one — but it executes on the
	// optimizer's goroutine: a slow observer stalls the swarm.
	Observer func(IterStats, SwarmView)
	// RecordHistory keeps every particle position per iteration.
	RecordHistory bool
	// InitPositions seeds the swarm at the given positions instead of
	// uniformly at random; len must equal Glowworms when non-nil.
	InitPositions [][]float64
	// InvalidWalk makes worms sitting on *invalid* positions with no
	// brighter neighbour take a uniform random step of
	// InvalidWalk × StepSize instead of staying stationary. Canonical
	// GSO keeps such worms put (the paper's Fig. 1 shows them frozen
	// in the undefined area); a small walk lets a swarm that
	// initialized entirely outside a narrow valid basin still
	// discover it. 0 disables (the canonical behaviour); worms on
	// valid positions are never perturbed.
	InvalidWalk float64
}

// Run executes GSO over the given solution-space bounds.
func Run(p Params, bounds geom.Rect, obj Objective, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, bounds, obj, opts)
}

// cancelEvery is how many glowworms the movement phase moves between
// context checks.
const cancelEvery = 64

// evalChunk is the most positions one EvaluateBatch call receives; the
// context is checked between chunks. It matches the binned kernel's
// row tile, so chunking costs the kernel no extra passes.
const evalChunk = 256

// RunContext is Run with cancellation: the context is checked at the
// top of every swarm iteration, between evalChunk-position chunks of
// the objective evaluation, and every cancelEvery glowworms of the
// movement phase, so a cancelled run returns ctx.Err() within one
// chunk per worker or cancelEvery neighbour scans (O(cancelEvery·L·n)
// work), even for very large swarms. A cancelled run returns no
// partial result and does not invoke the Observer again.
func RunContext(ctx context.Context, p Params, bounds geom.Rect, obj Objective, opts Options) (*Result, error) {
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
	eval := newSwarmEvaluator(obj, p.Workers, L)
	m := newMover(p, bounds, opts, step, sensor, r0)
	if opts.InitPositions != nil {
		if len(opts.InitPositions) != L {
			return nil, fmt.Errorf("gso: %d initial positions for %d glowworms", len(opts.InitPositions), L)
		}
		for i, ip := range opts.InitPositions {
			if len(ip) != n {
				return nil, fmt.Errorf("gso: initial position %d has dimension %d, want %d", i, len(ip), n)
			}
			copy(m.rows[i], ip)
		}
	} else {
		for _, q := range m.rows {
			randomPoint(rng, bounds, q)
		}
	}

	luc, fitness, valid := m.luc, make([]float64, L), m.valid
	res := &Result{}
	if opts.RecordHistory {
		res.History = make([][][]float64, L)
	}

	var plateau []float64

	// dirty marks worms whose position changed since their last
	// evaluation (every worm, at the start). Objectives and weights are
	// pure functions of position, so a clean worm keeps its fitness,
	// validity and selection weight. batch holds row views of the dirty
	// positions (no coordinate copies); batchFit and batchValid receive
	// their results before the scatter.
	dirty := m.dirty
	batch := make([][]float64, 0, L)
	batchFit := make([]float64, L)
	batchValid := make([]bool, L)

	for t := 0; t < p.MaxIters; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: evaluate the moved worms (optionally parallel) and
		// refresh their selection weights, then update luciferin.
		// Invalid positions decay only, emulating the undefined log
		// objective (paper Section V-F). Selection weights (e.g. KDE
		// box masses) are taken at the start-of-iteration positions,
		// like everything else the synchronous movement reads, rather
		// than per candidate pair.
		batch = batch[:0]
		for i, d := range dirty {
			if d {
				batch = append(batch, m.rows[i])
			}
		}
		if len(batch) > 0 {
			eval.run(ctx, batch, batchFit[:len(batch)], batchValid[:len(batch)])
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Evaluations += len(batch)
		}
		b := 0
		for i, d := range dirty {
			if !d {
				continue
			}
			fitness[i], valid[i] = batchFit[b], batchValid[b]
			b++
			if opts.Weight != nil {
				m.weight[i] = math.Max(0, opts.Weight(m.rows[i]))
			}
			dirty[i] = false
		}
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

		// Phase 2: synchronous movement.
		moved := m.run(ctx, rng)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

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
			opts.Observer(it, SwarmView{Positions: m.rows, Fitness: fitness, Valid: valid, Luciferin: luc})
		}
		if opts.RecordHistory {
			for i, q := range m.rows {
				res.History[i] = append(res.History[i], append([]float64(nil), q...))
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

	res.Positions = m.rows
	res.Fitness = fitness
	res.Valid = valid
	res.Luciferin = luc
	return res, nil
}

// mover runs the synchronous movement phase. Positions live in two
// flat L·n buffers, viewed row by row: every worm reads the
// start-of-iteration swarm in rows and writes only its own row of
// nextRows, and the buffers swap when the phase ends. Luciferin,
// radii, weights and validity are likewise read at their
// start-of-iteration values, so no worm's move depends on another's.
type mover struct {
	n                int
	bounds           geom.Rect
	step, walk       float64 // movement step; InvalidWalk factor
	sensor, beta, nt float64
	weighted         bool
	rows, nextRows   [][]float64 // per-worm views of the two position buffers
	luc, radius      []float64
	weight           []float64 // selection weight per worm; nil without Weight
	valid, dirty     []bool
	keys             []rankKey
	rpos, rluc, rw   []float64 // positions, luciferin, weights in rank order
	brighter         []int     // brighter[i]: worms strictly brighter than worm i
	sq               []float64 // one worm's squared distances to the brighter ranks
	nbr              []int     // one worm's neighbours, as ranks
	w                []float64 // their selection weights
}

// rankKey orders worms by luciferin.
type rankKey struct {
	luc float64
	i   int
}

// newMover allocates a swarm of p.Glowworms worms at luciferin ℓ_0
// and radius r0, all dirty, with positions left for the caller to
// fill in rows.
func newMover(p Params, bounds geom.Rect, opts Options, step, sensor, r0 float64) *mover {
	L, n := p.Glowworms, bounds.Dims()
	m := &mover{
		n: n, bounds: bounds, step: step, walk: opts.InvalidWalk,
		sensor: sensor, beta: p.Beta, nt: float64(p.DesiredNeighbors),
		weighted: opts.Weight != nil,
		rows:     rowViews(make([]float64, L*n), n), nextRows: rowViews(make([]float64, L*n), n),
		luc: make([]float64, L), radius: make([]float64, L),
		valid: make([]bool, L), dirty: make([]bool, L),
		keys: make([]rankKey, L), rpos: make([]float64, L*n), rluc: make([]float64, L),
		brighter: make([]int, L), sq: make([]float64, L),
	}
	for i := range L {
		m.luc[i], m.radius[i], m.dirty[i] = p.InitLuciferin, r0, true
		m.keys[i].i = i
	}
	if m.weighted {
		m.weight, m.rw = make([]float64, L), make([]float64, L)
	}
	return m
}

// rowViews slices a flat L·n buffer into L rows of n coordinates, each
// capped at its own length.
func rowViews(flat []float64, n int) [][]float64 {
	rows := make([][]float64, len(flat)/n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// run moves every worm, in index order, and returns how many moved.
// Roulette and walk draws come from rng in that order. It stops early,
// leaving the swarm half-moved, when ctx is cancelled; the caller
// checks ctx and discards the run.
func (m *mover) run(ctx context.Context, rng *rand.Rand) int {
	m.rank()
	moved := 0
	for i := range m.rows {
		if i%cancelEvery == 0 && ctx.Err() != nil {
			break
		}
		if m.move(i, rng) {
			moved++
		}
	}
	m.rows, m.nextRows = m.nextRows, m.rows
	return moved
}

// rank sorts the swarm by luciferin, brightest first, ties in index
// order and NaN last, and lays positions, luciferin and weights out in
// that order. The worms strictly brighter than worm i are then exactly
// the first brighter[i] ranks; NaN luciferin is outshone by nothing
// and outshines nothing, so its worms get 0.
func (m *mover) rank() {
	n := m.n
	// The keys start in the previous iteration's order, which one
	// luciferin update mostly preserves, so the sort runs on nearly
	// sorted input. The order is total, so the result does not depend
	// on where the keys start.
	for k := range m.keys {
		m.keys[k].luc = m.luc[m.keys[k].i]
	}
	slices.SortFunc(m.keys, func(a, b rankKey) int {
		if c := cmp.Compare(b.luc, a.luc); c != 0 {
			return c
		}
		return a.i - b.i
	})
	group := 0
	for k, key := range m.keys {
		if k > 0 && m.keys[k-1].luc > key.luc {
			group = k
		}
		m.brighter[key.i] = group
		if math.IsNaN(key.luc) {
			m.brighter[key.i] = 0
		}
		copy(m.rpos[k*n:(k+1)*n], m.rows[key.i])
		m.rluc[k] = key.luc
		if m.weighted {
			m.rw[k] = m.weight[key.i]
		}
	}
}

// move takes worm i's step: it scans the brighter ranks for neighbours
// within its radius, adapts the radius, and writes its next position.
// It reports whether the worm moved.
func (m *mover) move(i int, rng *rand.Rand) bool {
	n := m.n
	pi, ni := m.rows[i], m.nextRows[i]
	r, li := m.radius[i], m.luc[i]
	// j is a neighbour iff !(dist(pi, pos[j]) > r). For a normal r²,
	// the squared distance s decides that exactly outside the band
	// [lo, hi] = r²·(1 ∓ 2⁻⁴⁸): the band is far wider than the
	// rounding of r², of the thresholds and of the square root, so
	// s > hi proves the distance exceeds r and s < lo proves it does
	// not. Only a sum inside the band takes the square root. A zero
	// radius (common once a dense cluster shrinks it) is exact too:
	// lo = hi = 0, and only s = 0 is a neighbour. Any other radius
	// sends every sum to the square root. A NaN sum (a NaN coordinate)
	// fails both comparisons and counts as a neighbour, as NaN > r
	// does; an infinite one lands above hi, as +Inf > r does.
	r2 := r * r
	lo, hi := 0.0, math.Inf(1)
	if r == 0 || r2 >= 0x1p-1022 && r2 <= math.MaxFloat64 {
		lo, hi = r2*(1-0x1p-48), r2*(1+0x1p-48)
	}
	nb := m.brighter[i]
	sq := m.sq[:nb]
	sqDists(sq, pi, m.rpos[:nb*n])
	nbr, ws := m.nbr[:0], m.w[:0]
	var totalW float64
	for k, s := range sq {
		if s > hi || s >= lo && math.Sqrt(s) > r {
			continue
		}
		w := m.rluc[k] - li
		if m.weighted {
			w *= m.rw[k]
		}
		if w <= 0 {
			continue
		}
		nbr = append(nbr, k)
		ws = append(ws, w)
		totalW += w
	}
	m.nbr, m.w = nbr, ws
	// Adaptive radius uses the pre-move neighbourhood size.
	m.radius[i] = math.Min(m.sensor, math.Max(0, r+m.beta*(m.nt-float64(len(nbr)))))
	if len(nbr) == 0 || totalW <= 0 {
		if m.walk > 0 && !m.valid[i] {
			// Diffuse constraint-violating stragglers.
			for c := range ni {
				delta := (rng.Float64()*2 - 1) * m.step * m.walk
				ni[c] = clamp(pi[c]+delta, m.bounds.Min[c], m.bounds.Max[c])
			}
			m.dirty[i] = true
			return true
		}
		copy(ni, pi)
		return false
	}
	// Roulette selection over (ℓ_j − ℓ_i) · weight.
	pick := rng.Float64() * totalW
	sel := nbr[len(nbr)-1]
	var cum float64
	for k, w := range ws {
		cum += w
		if pick <= cum {
			sel = nbr[k]
			break
		}
	}
	ps := m.rpos[sel*n : (sel+1)*n]
	d := dist(pi, ps)
	if d == 0 {
		copy(ni, pi)
		return false
	}
	for c := range ni {
		ni[c] = clamp(pi[c]+m.step*(ps[c]-pi[c])/d, m.bounds.Min[c], m.bounds.Max[c])
	}
	m.dirty[i] = true
	return true
}

// InitialRadius implements the paper's Section V-G heuristic
// r_0 = (1 − (1/2)^(1/L))^(1/d), taken from Friedman et al. Eq. 2.24
// (the expected edge length of a hyper-cube capturing 1/(2L) of a unit
// volume), scaled by the mean domain extent.
func InitialRadius(glowworms, dims int, meanExtent float64) float64 {
	if glowworms < 1 || dims < 1 {
		return meanExtent
	}
	frac := 1 - math.Pow(0.5, 1/float64(glowworms))
	return math.Pow(frac, 1/float64(dims)) * meanExtent
}

// swarmEvaluator owns the per-run fitness-evaluation machinery: the
// worker count and, for batch-capable objectives, one BatchEvaluator
// per worker created once and reused every iteration so the steady
// state performs no allocation.
type swarmEvaluator struct {
	obj     Objective
	workers int
	batch   []BatchEvaluator // one per worker; nil for scalar objectives
}

// newSwarmEvaluator sizes the worker pool for a swarm of the given
// size, keeping the historical rule that shards smaller than two
// positions per worker run sequentially.
func newSwarmEvaluator(obj Objective, workers, swarm int) *swarmEvaluator {
	if workers < 1 || swarm < 2*workers {
		workers = 1
	}
	e := &swarmEvaluator{obj: obj, workers: workers}
	if bo, ok := obj.(BatchObjective); ok {
		e.batch = make([]BatchEvaluator, workers)
		for w := range e.batch {
			e.batch[w] = bo.NewBatchEvaluator()
		}
	}
	return e
}

// run fills fitness and valid for every position, sharding the swarm
// across the worker goroutines. Shards are contiguous and written
// disjointly, so results match the sequential evaluation exactly. A
// shard stops between chunks once ctx is cancelled, leaving the rest
// unscored; the caller checks ctx and discards the run.
func (e *swarmEvaluator) run(ctx context.Context, pos [][]float64, fitness []float64, valid []bool) {
	if e.workers == 1 {
		e.shard(ctx, 0, pos, fitness, valid)
		return
	}
	var wg sync.WaitGroup
	chunk := (len(pos) + e.workers - 1) / e.workers
	for w := 0; w < e.workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(pos))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			e.shard(ctx, w, pos[lo:hi], fitness[lo:hi], valid[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
}

// shard evaluates one contiguous slice of the swarm on worker w, in
// calls of at most evalChunk positions with a ctx check between them.
func (e *swarmEvaluator) shard(ctx context.Context, w int, pos [][]float64, fitness []float64, valid []bool) {
	for lo := 0; lo < len(pos); lo += evalChunk {
		if lo > 0 && ctx.Err() != nil {
			return
		}
		hi := min(lo+evalChunk, len(pos))
		if e.batch != nil {
			e.batch[w].EvaluateBatch(pos[lo:hi], fitness[lo:hi], valid[lo:hi])
			continue
		}
		for i := lo; i < hi; i++ {
			fitness[i], valid[i] = e.obj.Fitness(pos[i])
		}
	}
}

// randomPoint fills p with a uniform draw from bounds.
func randomPoint(rng *rand.Rand, bounds geom.Rect, p []float64) {
	for j := range p {
		p[j] = bounds.Min[j] + rng.Float64()*(bounds.Max[j]-bounds.Min[j])
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// sqDists writes to dst[k] the squared distance from p to the k-th
// len(p)-coordinate row of rows, bit-identical to the square of what
// dist sums: coordinates are added in order, and the float64
// conversions forbid fusing a multiply into the add. Six coordinates
// (a region over 3-D data) are unrolled so consecutive rows' sums
// overlap in the pipeline.
func sqDists(dst, p, rows []float64) {
	if len(p) == 6 {
		p0, p1, p2, p3, p4, p5 := p[0], p[1], p[2], p[3], p[4], p[5]
		for k := range dst {
			q := rows[6*k : 6*k+6 : 6*k+6]
			d0, d1, d2, d3, d4, d5 := p0-q[0], p1-q[1], p2-q[2], p3-q[3], p4-q[4], p5-q[5]
			dst[k] = float64(d0*d0) + float64(d1*d1) + float64(d2*d2) +
				float64(d3*d3) + float64(d4*d4) + float64(d5*d5)
		}
		return
	}
	n := len(p)
	for k := range dst {
		q := rows[k*n : k*n+n : k*n+n]
		var s float64
		for c, v := range p {
			d := v - q[c]
			s += float64(d * d)
		}
		dst[k] = s
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
