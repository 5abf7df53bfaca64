package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	surf "surf"
	"surf/internal/synth"
)

// kind is the type of one benchmark request.
type kind int

const (
	kindFind kind = iota
	kindTopK
	kindStream
	kindFindMany
	kindAppend
)

var kindNames = [...]string{"find", "topk", "stream", "findmany", "append"}

func (k kind) String() string { return kindNames[k] }

// request is one generated input. Open-loop requests carry the offset
// from the start of the measured window at which they fall due.
type request struct {
	kind  kind
	due   time.Duration
	query surf.Query
	topk  surf.TopKQuery
	many  []surf.Query
	rows  [][]float64
}

// queries lists the threshold queries a request runs.
func (r *request) queries() []surf.Query {
	switch r.kind {
	case kindFind, kindStream:
		return []surf.Query{r.query}
	case kindFindMany:
		return r.many
	}
	return nil
}

// workload fixes everything a run of one named workload needs except
// the seed: the dataset shape, the registry spec knobs, the traffic
// and the latency limit behind slo_met_frac.
type workload struct {
	name string
	dims int
	// background and boost are synth's N and BoostPerRegion; regions
	// are planted per dataset.
	background, boost, regions int
	// baseRows is how many rows of the generated data the registry
	// loads; the rest is the append pool (ingest-kde only).
	baseRows int
	// train is the number of labelled workload queries the surrogate
	// trains on at load time.
	train int
	// drift turns on drift monitoring with a threshold no append
	// reaches, so the check runs but no retrain fires.
	drift bool
	// sloMS is the latency limit of slo_met_frac, about three times
	// the workload's median, so the share falls on failures and large
	// slowdowns rather than on the host's speed swings.
	sloMS float64
}

// The three workloads. Their reasons are repeated in BENCHMARK.json.
var workloads = []*workload{
	{
		// The paper's canonical batch mining query: default swarm over
		// 3-D data, so time splits between GSO's O(L²·d) neighbour
		// search and the inference kernel. Unique seeds keep the
		// result cache cold.
		name: "mine-3d", dims: 3, background: 96400, boost: 1200, regions: 3,
		baseRows: 100000, train: 6000, sloMS: 600,
	},
	{
		// Independent analysts behind a dashboard: an open loop of
		// small-swarm finds, top-k, SSE streams and batches with a
		// third repeated, so server, registry, result cache and
		// verification dominate and GSO neighbour work is near zero.
		name: "interactive-2d", dims: 2, background: 18400, boost: 1200, regions: 3,
		baseRows: 22000, train: 6000, sloMS: 50,
	},
	{
		// Writes beside reads: scheduled appends through the living
		// store, evaluator rebuild and drift check, next to a closed
		// loop of KDE-weighted finds over the growing dataset.
		name: "ingest-kde", dims: 2, background: 46400, boost: 1200, regions: 3,
		baseRows: 20000, train: 2000, drift: true, sloMS: 200,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Traffic constants, fixed when the workloads were defined.
const (
	// mineClients is the closed-loop client count of mine-3d.
	mineClients = 2
	// interactiveRate is the open-loop arrival rate of interactive-2d
	// in requests per second: about a sixth of the ~650 per second a
	// two-vCPU VM sustained when the workload was defined. At half
	// capacity, queueing turned that VM's speed swings into run-to-run
	// latency spreads of 25-70%.
	interactiveRate = 100
	// appendEvery is the fixed append period of ingest-kde, and
	// appendRows the batch size.
	appendEvery = 400 * time.Millisecond
	appendRows  = 200
	// kdeSample caps the KDE sample of ingest-kde queries.
	kdeSample = 250
	// smallSwarm and smallIters are the swarm of the 2-D workloads.
	smallSwarm = 32
	smallIters = 24
	// findManyBatch is the number of queries in one findmany: two, so a
	// batch on the two-worker pool costs about one find and the mix
	// stays near uniform in cost.
	findManyBatch = 2
)

// dataset is one generated dataset: the registry's base rows and, for
// ingest-kde, the pool later appended in fixed batches.
type dataset struct {
	names []string
	base  [][]float64 // rows
	pool  [][]float64 // rows, appended appendRows at a time
	yr    float64
}

// generate draws the workload's dataset from the synthetic generator
// and shuffles its rows, so the base and every append batch come from
// the same distribution (background plus planted regions).
func (w *workload) generate(seed uint64) (*dataset, error) {
	ds, err := synth.Generate(synth.Config{
		Dims: w.dims, Regions: w.regions, Stat: synth.Density,
		N: w.background, BoostPerRegion: w.boost, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	n := ds.Data.Len()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ds.Data.Row(i)
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eedda7a))
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return &dataset{
		names: ds.Data.Names(),
		base:  rows[:w.baseRows],
		pool:  rows[w.baseRows:],
		yr:    ds.SuggestedYR,
	}, nil
}

// gen produces the workload's requests from the seed. Every method is
// deterministic in the seed and the request index.
type gen struct {
	w    *workload
	seed uint64
	yr   float64
	pool [][]float64
}

// querySeed gives request i (< 10⁷) of stream s a seed no other
// request of the run shares.
func (g *gen) querySeed(s, i int) uint64 {
	return g.seed*1_000_000_007 + uint64(s)*10_000_000 + uint64(i) + 1
}

// mineQuery is the i-th mine-3d request: the default swarm with a
// unique seed, so the cache never hits.
func (g *gen) mineQuery(client, i int) request {
	return request{kind: kindFind, query: surf.Query{Threshold: g.yr, Above: true, Seed: g.querySeed(client, i)}}
}

// kdeQuery is the i-th ingest-kde query: a small KDE-weighted swarm.
func (g *gen) kdeQuery(i int) request {
	return request{kind: kindFind, query: surf.Query{
		Threshold: g.yr, Above: true, UseKDE: true, KDESample: kdeSample,
		Glowworms: smallSwarm, Iterations: smallIters, Seed: g.querySeed(7, i),
	}}
}

// appendBatch is the i-th ingest-kde append, due at i·appendEvery;
// ok is false once the pool is used up.
func (g *gen) appendBatch(i int) (request, bool) {
	lo, hi := i*appendRows, (i+1)*appendRows
	if hi > len(g.pool) {
		return request{}, false
	}
	return request{kind: kindAppend, due: time.Duration(i) * appendEvery, rows: g.pool[lo:hi]}, true
}

// interactive builds the interactive-2d schedule for a window of the
// given length: Poisson arrivals at interactiveRate, a fixed mix of
// find, topk, stream and findmany, and repeats of recent finds and
// topks, which the result cache answers.
func (g *gen) interactive(window time.Duration) []request {
	rng := rand.New(rand.NewPCG(g.seed, 0x1a7e4ac7))
	thresholds := []float64{0.8 * g.yr, g.yr, 1.2 * g.yr}
	small := func(i int) surf.Query {
		return surf.Query{
			Threshold: thresholds[rng.IntN(len(thresholds))], Above: true,
			Glowworms: smallSwarm, Iterations: smallIters, Seed: g.querySeed(3, i),
		}
	}
	var out []request
	var cacheable []int // indices of earlier finds and topks
	for t, i := time.Duration(0), 0; ; i++ {
		t += time.Duration(rng.ExpFloat64() / interactiveRate * float64(time.Second))
		if t >= window {
			return out
		}
		r := request{due: t}
		// A repeat names a query sent at least a few requests earlier,
		// so it has normally finished and been cached by the time the
		// repeat arrives; the cache holds far more than the window
		// repeats draw from.
		if p := rng.Float64(); p < 0.34 && len(cacheable) > 8 {
			prev := out[cacheable[len(cacheable)-8-rng.IntN(min(24, len(cacheable)-8))]]
			r.kind, r.query, r.topk = prev.kind, prev.query, prev.topk
			out = append(out, r)
			continue
		}
		switch p := rng.Float64(); {
		case p < 0.45:
			r.kind, r.query = kindFind, small(i)
		case p < 0.65:
			r.kind = kindTopK
			r.topk = surf.TopKQuery{K: 3, Largest: true, Glowworms: smallSwarm, Iterations: smallIters, Seed: g.querySeed(4, i)}
		case p < 0.85:
			r.kind, r.query = kindStream, small(i)
		default:
			r.kind = kindFindMany
			for j := 0; j < findManyBatch; j++ {
				r.many = append(r.many, small(i*findManyBatch+j+500_000))
			}
		}
		if r.kind == kindFind || r.kind == kindTopK {
			cacheable = append(cacheable, len(out))
		}
		out = append(out, r)
	}
}

// neighbourWork is the GSO neighbour-search work of one query,
// L²·T·(2d): every pair of glowworms compared in every iteration over
// the 2d-dimensional solution space.
func neighbourWork(dims, glowworms, iterations int) float64 {
	if glowworms == 0 {
		glowworms = 50 * 2 * dims
	}
	if iterations == 0 {
		iterations = 100
	}
	return math.Pow(float64(glowworms), 2) * float64(iterations) * float64(2*dims)
}
