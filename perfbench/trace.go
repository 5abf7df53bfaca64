package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	surf "surf"
	"surf/drift"
	"surf/internal/core"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/registry"
)

// span is one timed step of one request. Spans of a request share its
// ID; Parent indexes the causing span (-1 for the request itself). A
// virtual span was re-timed on a scratch copy or estimated from a
// per-call time, rather than measured inside its parent's interval.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`
	Virtual bool   `json:"virtual,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (t *tracer) add(req int, name string, parent int, start time.Time, dur time.Duration, virtual bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		Start: int64(start.Sub(t.epoch)), Dur: int64(dur), Virtual: virtual})
	return len(t.spans) - 1
}

// open starts a span now; close ends it.
func (t *tracer) open(req int, name string, parent int) int {
	return t.add(req, name, parent, time.Now(), 0, false)
}

func (t *tracer) close(i int) {
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].Dur = end - t.spans[i].Start
	t.mu.Unlock()
}

// setEnd ends span i at the given instant.
func (t *tracer) setEnd(i int, end time.Time) {
	t.mu.Lock()
	t.spans[i].Dur = int64(end.Sub(t.epoch)) - t.spans[i].Start
	t.mu.Unlock()
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus its children's, for
// the spans of the request rooted at root (spans of one request are
// contiguous from their root on).
func (t *tracer) selfTimes(root int) map[int]int64 {
	self := map[int]int64{}
	req := t.spans[root].Req
	for i := root; i < len(t.spans) && t.spans[i].Req == req; i++ {
		self[i] += t.spans[i].Dur
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].Dur
		}
	}
	return self
}

// timedPredictor is the traced finder's batch predictor: it times
// every Engine.PredictStatisticBatch call as a kernel span.
type timedPredictor struct {
	eng    *surf.Engine
	tr     *tracer
	req    int
	parent int

	mu      sync.Mutex
	busy    time.Duration
	rows    int
	batches int
	err     error
}

func (p *timedPredictor) PredictBatch(rows [][]float64, out []float64) {
	start := time.Now()
	err := p.eng.PredictStatisticBatch(rows, out)
	d := time.Since(start)
	p.tr.add(p.req, "kernel.batch", p.parent, start, d, false)
	p.mu.Lock()
	p.busy += d
	p.rows += len(rows)
	p.batches++
	if err != nil && p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// gsoParams mirrors the engine's optimizer defaulting for a query. The
// bit-identity check against Handle.Find fails if the two drift apart.
func gsoParams(dims, glowworms, iterations, workers int, seed uint64) gso.Params {
	g := gso.DefaultParams()
	g.Glowworms = 50 * 2 * dims
	if glowworms > 0 {
		g.Glowworms = glowworms
	}
	if iterations > 0 {
		g.MaxIters = iterations
	}
	if seed > 0 {
		g.Seed = seed
	}
	if workers > 1 {
		g.Workers = workers
	}
	return g
}

// layerStats accumulates the per-layer figures of the traced pass.
type layerStats struct {
	requests, unaccounted int

	acquire             time.Duration
	acquires            int
	cacheHit, serverHit time.Duration
	cacheHits           int
	serverHits          int

	queries                 int // traced swarm runs
	threshold               int // of which threshold queries
	gsoSelf                 time.Duration
	extract, verify         time.Duration
	iterations, evaluations int
	validFrac               float64
	regions                 int
	kernelBusy              time.Duration
	kernelRows, batches     int
	evalTime                time.Duration
	evals, evalAllocs       int
	evalAllocRuns           int
	kdeQueries              int
	kdeFit, kdeBusy         time.Duration
	boxmassCalls            int

	refQueries         int
	refMallocs, refKB  float64
	tracedDur, refDur  time.Duration
	appends            int
	appendReg, setData time.Duration
	storeAppend, drift time.Duration
}

// tracePass replays a workload's requests one at a time against the
// trace fixture, recording a span tree per request: request →
// registry acquire → finder loop → kernel batches → extract → verify
// → evaluate. The traced finder is assembled from the engine's public
// calls and must return exactly what Handle.Find returns.
type tracePass struct {
	w      *workload
	fx     *fixture
	tr     *tracer
	st     layerStats
	checks *checkTally
	seen   map[string]*surf.Result
	// after holds the re-measurements of the current request, run once
	// its spans have closed.
	after []func() error
	// scratch mirrors the fixture's engine and store for re-timing an
	// append's sub-steps; samples is the drift replay set.
	scratch      *surf.Engine
	scratchStore *surf.Store
	samples      []drift.Sample
}

// setupPhases re-runs the registry's load steps on a scratch engine
// over the fixture's CSV and times each: workload generation
// (labelling) and surrogate training.
func (tp *tracePass) setupPhases(ctx context.Context) (genS, trainS float64, err error) {
	f, err := os.Open(tp.fx.spec.Data)
	if err != nil {
		return 0, 0, err
	}
	ds, err := surf.ReadCSVDataset(f)
	f.Close()
	if err != nil {
		return 0, 0, err
	}
	eng, err := surf.Open(ds, engineConfig(tp.fx.data.names))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	wl, err := eng.GenerateWorkloadContext(ctx, tp.fx.spec.Train, tp.fx.spec.TrainSeed)
	if err != nil {
		return 0, 0, err
	}
	genS = time.Since(start).Seconds()
	start = time.Now()
	if err := eng.TrainSurrogateContext(ctx, wl, surf.TrainOptions{Seed: tp.fx.spec.TrainSeed}); err != nil {
		return 0, 0, err
	}
	trainS = time.Since(start).Seconds()
	if tp.w.drift {
		store, err := surf.NewStore(ds)
		if err != nil {
			return 0, 0, err
		}
		tp.scratch, tp.scratchStore = eng, store
		// The registry's reservoir over the same training workload.
		rsv := drift.NewReservoir(driftReservoir, tp.fx.spec.TrainSeed+0x5eed)
		for i := 0; i < wl.Len(); i++ {
			c, h, _ := wl.Query(i)
			rsv.Add(c, h)
		}
		tp.samples = rsv.Samples()
	}
	return genS, trainS, nil
}

// traceRequests lists the replayed requests: mine-3d's finds,
// interactive-2d's schedule in order, and ingest-kde's finds with an
// append after every four.
func traceRequests(w *workload, g *gen, n int) []request {
	var out []request
	switch w.name {
	case "mine-3d":
		for i := 0; i < n; i++ {
			out = append(out, g.mineQuery(5, i))
		}
	case "interactive-2d":
		out = g.interactive(time.Duration(n) * time.Second / interactiveRate)
	case "ingest-kde":
		for i, a := 0, 0; i < n; i++ {
			if i%5 == 4 {
				if r, ok := g.appendBatch(a); ok {
					out = append(out, r)
					a++
					continue
				}
			}
			out = append(out, g.kdeQuery(500_000+i))
		}
	}
	return out
}

// cacheKey identifies a cacheable request.
func cacheKey(dims int, r *request) string {
	if r.kind == kindTopK {
		return "k" + r.topk.CacheKey(dims)
	}
	return "q" + r.query.CacheKey(dims)
}

// run replays reqs until the deadline (and at least minReqs of them).
func (tp *tracePass) run(ctx context.Context, reqs []request, deadline time.Time, minReqs int) error {
	for i := range reqs {
		if i >= minReqs && time.Now().After(deadline) {
			break
		}
		r := &reqs[i]
		var err error
		if r.kind == kindAppend {
			err = tp.traceAppend(ctx, i, r)
		} else {
			err = tp.traceQuery(ctx, i, r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// account checks that the request's layer self times, clamped at
// zero, sum to within a tenth of its traced end-to-end time: a
// negative self time means a child was attributed more time than its
// parent spent.
func (tp *tracePass) account(root int) {
	tp.st.requests++
	total := tp.tr.spans[root].Dur
	var sum int64
	for _, s := range tp.tr.selfTimes(root) {
		sum += max(s, 0)
	}
	if math.Abs(float64(sum-total)) > 0.1*float64(total) {
		tp.st.unaccounted++
		fmt.Fprintf(os.Stderr, "trace: request %d (%s) layers sum to %.3f ms of %.3f ms\n",
			tp.tr.spans[root].Req, tp.tr.spans[root].Name, float64(sum)/1e6, float64(total)/1e6)
	}
}

func (tp *tracePass) traceQuery(ctx context.Context, id int, r *request) error {
	key := cacheKey(tp.w.dims, r)
	cached, hit := tp.seen[key]
	hit = hit && (r.kind == kindFind || r.kind == kindTopK)
	refFirst := id%2 == 0
	var want []*surf.Result
	var refDur time.Duration
	var err error
	if !hit && refFirst {
		if want, refDur, err = tp.untraced(ctx, r); err != nil {
			return err
		}
	}

	root := tp.tr.open(id, "request", -1)
	acq := tp.tr.open(id, "registry.acquire", root)
	h, err := tp.fx.reg.Acquire(ctx, datasetName)
	tp.tr.close(acq)
	if err != nil {
		return err
	}
	var got []*surf.Result
	if hit {
		sp := tp.tr.open(id, "surf.cache", root)
		start := time.Now()
		got, err = reference(ctx, h, r)
		tp.st.cacheHit += time.Since(start)
		tp.st.cacheHits++
		tp.tr.close(sp)
	} else {
		got, err = tp.traceFinder(ctx, id, root, h, r)
	}
	rel := tp.tr.open(id, "registry.release", root)
	h.Release()
	tp.tr.close(rel)
	tp.tr.close(root)
	if err != nil {
		return err
	}
	for _, f := range tp.after {
		if err := f(); err != nil {
			return err
		}
	}
	tp.after = tp.after[:0]
	tp.st.acquire += time.Duration(tp.tr.spans[acq].Dur + tp.tr.spans[rel].Dur)
	tp.st.acquires++
	tp.account(root)

	if hit {
		want = []*surf.Result{cached}
		if err := tp.serverHit(r); err != nil {
			return err
		}
	} else if !refFirst {
		if want, refDur, err = tp.untraced(ctx, r); err != nil {
			return err
		}
	}
	if !hit && (r.kind == kindFind || r.kind == kindTopK) {
		// The answer is cached now: time a hit in the engine and
		// through the HTTP handler, so every workload reports both.
		if err := tp.timeHit(ctx, r); err != nil {
			return err
		}
	}
	if r.kind == kindFind && !hit {
		tp.st.tracedDur += time.Duration(tp.tr.spans[root].Dur)
		tp.st.refDur += refDur
	}
	tp.checks.checked++
	for j := range want {
		if d := diffResult(got[j], want[j]); d != "" {
			tp.checks.fail("traced %s vs Handle: %s", r.kind, d)
		}
	}
	if r.kind == kindFind || r.kind == kindTopK {
		tp.seen[key] = want[0]
	}
	return nil
}

// untraced answers r through a handle — Handle.Find or FindTopK for
// finds and topks, Stream for streams and FindMany for batches, as the
// server does — timing acquire to release and, for finds, counting the
// allocations of the whole call.
func (tp *tracePass) untraced(ctx context.Context, r *request) ([]*surf.Result, time.Duration, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	h, err := tp.fx.reg.Acquire(ctx, datasetName)
	if err != nil {
		return nil, 0, err
	}
	out, err := answer(ctx, h, r)
	h.Release()
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if r.kind == kindFind {
		runtime.ReadMemStats(&after)
		tp.st.refMallocs += float64(after.Mallocs - before.Mallocs)
		tp.st.refKB += float64(after.TotalAlloc-before.TotalAlloc) / 1024
		tp.st.refQueries++
	}
	return out, d, nil
}

// answer runs r through the handle call the server uses for its kind.
func answer(ctx context.Context, h *registry.Handle, r *request) ([]*surf.Result, error) {
	switch r.kind {
	case kindStream:
		st, err := h.Stream(ctx, r.query)
		if err != nil {
			return nil, err
		}
		res, err := st.Result()
		return []*surf.Result{res}, err
	case kindFindMany:
		out := make([]*surf.Result, len(r.many))
		for mr := range h.FindMany(ctx, r.many) {
			if mr.Err != nil {
				return nil, mr.Err
			}
			out[mr.Index] = mr.Result
		}
		return out, nil
	}
	return reference(ctx, h, r)
}

// timeHit times Handle.Find (or FindTopK) on a request the cache
// answers, then the HTTP handler on it.
func (tp *tracePass) timeHit(ctx context.Context, r *request) error {
	h, err := tp.fx.reg.Acquire(ctx, datasetName)
	if err != nil {
		return err
	}
	start := time.Now()
	_, err = reference(ctx, h, r)
	tp.st.cacheHit += time.Since(start)
	tp.st.cacheHits++
	h.Release()
	if err != nil {
		return err
	}
	return tp.serverHit(r)
}

// serverHit times the HTTP handler on a request the cache answers.
func (tp *tracePass) serverHit(r *request) error {
	path, body := "/v1/find", any(r.query)
	if r.kind == kindTopK {
		path, body = "/v1/topk", r.topk
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	start := time.Now()
	tp.fx.srv.Handler().ServeHTTP(rec, req)
	tp.st.serverHit += time.Since(start)
	tp.st.serverHits++
	if rec.Code != http.StatusOK {
		return fmt.Errorf("cached %s over the handler: status %d", r.kind, rec.Code)
	}
	return nil
}

// traceFinder runs each of r's queries through a finder assembled
// from the engine's public calls, timing every layer.
func (tp *tracePass) traceFinder(ctx context.Context, id, root int, h *registry.Handle, r *request) ([]*surf.Result, error) {
	if r.kind == kindTopK {
		res, err := tp.traceOne(ctx, id, root, h, nil, &r.topk)
		return []*surf.Result{res}, err
	}
	var out []*surf.Result
	for _, q := range r.queries() {
		res, err := tp.traceOne(ctx, id, root, h, &q, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// traceOne runs one threshold query (q) or top-k query (k) and
// returns its result in the public form.
func (tp *tracePass) traceOne(ctx context.Context, id, root int, h *registry.Handle, q *surf.Query, k *surf.TopKQuery) (*surf.Result, error) {
	eng := h.Engine()
	dims := eng.Dims()
	dmin, dmax := eng.Domain()
	stat := func(x, l []float64) float64 {
		v, err := eng.PredictStatistic(x, l)
		if err != nil {
			panic(err) // the fixture always has a surrogate
		}
		return v
	}
	f, err := core.NewFinder(stat, geom.Rect{Min: dmin, Max: dmax})
	if err != nil {
		return nil, err
	}
	if q != nil && q.UseKDE {
		if err := tp.fitDensity(id, root, h, f, q); err != nil {
			return nil, err
		}
	}
	var lastIter time.Time
	onIter := func(gso.IterStats) { lastIter = time.Now() }
	var regions []core.Region
	var swarm *gso.Result
	var validFrac float64
	loop := tp.tr.open(id, "gso.loop", root)
	pred := &timedPredictor{eng: eng, tr: tp.tr, req: id, parent: loop}
	f.AttachBatch(pred)
	if q != nil {
		dir := core.Below
		if q.Above {
			dir = core.Above
		}
		res, err := f.FindContext(ctx, core.FinderConfig{
			Threshold: q.Threshold, Dir: dir, C: q.C, MaxRegions: q.MaxRegions, UseKDE: q.UseKDE,
			MinSideFrac: q.MinSideFrac, MaxSideFrac: q.MaxSideFrac,
			GSO:         gsoParams(dims, q.Glowworms, q.Iterations, q.Workers, q.Seed),
			OnIteration: onIter,
		})
		if err != nil {
			return nil, err
		}
		regions, swarm, validFrac = res.Regions, res.Swarm, res.ValidFrac
	} else {
		res, err := f.FindTopKContext(ctx, core.TopKConfig{
			K: k.K, Largest: k.Largest, C: k.C, MinSideFrac: k.MinSideFrac, MaxSideFrac: k.MaxSideFrac,
			GSO:         gsoParams(dims, k.Glowworms, k.Iterations, k.Workers, k.Seed),
			OnIteration: onIter,
		})
		if err != nil {
			return nil, err
		}
		regions, swarm = res.Regions, res.Swarm
	}
	end := time.Now()
	tp.tr.setEnd(loop, lastIter)
	ext := tp.tr.add(id, "core.extract", root, lastIter, end.Sub(lastIter), false)
	if pred.err != nil {
		return nil, pred.err
	}

	vs := tp.tr.open(id, "core.verify", root)
	evalFn := func(x, l []float64) float64 {
		start := time.Now()
		v, _ := eng.Evaluate(x, l)
		d := time.Since(start)
		tp.tr.add(id, "dataset.evaluate", vs, start, d, false)
		tp.st.evalTime += d
		tp.st.evals++
		return v
	}
	out := &surf.Result{ComplianceRate: math.NaN()}
	switch {
	case q != nil && !q.SkipVerify:
		c := q.C
		if c == 0 {
			c = core.DefaultC
		}
		dir := core.Below
		if q.Above {
			dir = core.Above
		}
		out.ComplianceRate, err = core.VerifyContext(ctx, regions, evalFn, core.ObjectiveConfig{YR: q.Threshold, Dir: dir, C: c})
		if err != nil {
			return nil, err
		}
	case k != nil && !k.SkipVerify:
		for i := range regions {
			regions[i].TrueValue = evalFn(regions[i].Rect.Center(), regions[i].Rect.HalfSides())
			regions[i].Verified = true
		}
	}
	tp.tr.close(vs)

	// Per-call figures are re-measured once the request's spans have
	// closed, so the re-measurement does not count as request time.
	tp.after = append(tp.after, func() error {
		tp.evaluateAllocs(eng, regions)
		if q != nil && q.UseKDE {
			busy, calls, err := replayWeights(ctx, f, stat, dmin, dmax, q, gsoParams(dims, q.Glowworms, q.Iterations, q.Workers, q.Seed), swarm)
			if err != nil {
				return err
			}
			tp.tr.add(id, "kde.boxmass", loop, tp.tr.epoch.Add(time.Duration(tp.tr.spans[loop].Start)), busy, true)
			tp.st.kdeBusy += busy
			tp.st.boxmassCalls += calls
		}
		// GSO's self time is the loop minus kernel and KDE time. Under
		// use_kde it is a small difference of two large measured
		// times; a negative value is measurement noise, which the
		// accounting check reports, and counts as zero here.
		tp.st.gsoSelf += time.Duration(max(tp.tr.selfTimes(root)[loop], 0))
		return nil
	})
	tp.st.queries++
	tp.st.extract += time.Duration(tp.tr.spans[ext].Dur)
	tp.st.verify += time.Duration(tp.tr.spans[vs].Dur)
	tp.st.iterations += swarm.Iterations
	tp.st.evaluations += swarm.Evaluations
	tp.st.kernelBusy += pred.busy
	tp.st.kernelRows += pred.rows
	tp.st.batches += pred.batches
	if q != nil {
		tp.st.threshold++
		tp.st.validFrac += validFrac
		tp.st.regions += len(regions)
	}

	if q != nil {
		out.ValidParticleFraction = validFrac
	}
	for _, r := range regions {
		reg := surf.Region{
			Min: append([]float64(nil), r.Rect.Min...), Max: append([]float64(nil), r.Rect.Max...),
			Estimate: r.Estimate, Worms: r.Worms, TrueValue: r.TrueValue, Verified: r.Verified,
		}
		if q != nil {
			reg.Score, reg.Satisfies = r.Score, r.SatisfiesTrue
		}
		out.Regions = append(out.Regions, reg)
	}
	return out, nil
}

// fitDensity attaches the KDE prior the way the engine does for a
// use_kde query: over every row of the data version the handle pins.
func (tp *tracePass) fitDensity(id, root int, h *registry.Handle, f *core.Finder, q *surf.Query) error {
	sp := tp.tr.open(id, "kde.fit", root)
	ds, version := h.Store().View()
	if version != h.Engine().DataVersion() {
		return fmt.Errorf("store at version %d, engine at %d", version, h.Engine().DataVersion())
	}
	cols := make([][]float64, len(tp.fx.data.names))
	for j, name := range tp.fx.data.names {
		cols[j] = ds.Column(name)
	}
	points := make([][]float64, ds.Len())
	for i := range points {
		row := make([]float64, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		points[i] = row
	}
	sample := q.KDESample
	if sample == 0 {
		sample = 1000
	}
	err := f.AttachDensity(points, sample, q.Seed+17)
	tp.tr.close(sp)
	tp.st.kdeFit += time.Duration(tp.tr.spans[sp].Dur)
	tp.st.kdeQueries++
	return err
}

// replayWeights measures the KDE selection weights of a use_kde
// query, which GSO computes inside its loop where no public call can
// time them: it replays the same swarm with the scalar objective and a
// timed weight, and checks that the replay ended where the traced run
// did, so the timed calls are exactly the ones the run made.
func replayWeights(ctx context.Context, f *core.Finder, stat core.StatFn, dmin, dmax []float64, q *surf.Query,
	params gso.Params, traced *gso.Result) (time.Duration, int, error) {
	dir := core.Below
	if q.Above {
		dir = core.Above
	}
	c := q.C
	if c == 0 {
		c = core.DefaultC
	}
	obj, err := core.NewObjective(stat, core.ObjectiveConfig{YR: q.Threshold, Dir: dir, C: c})
	if err != nil {
		return 0, 0, err
	}
	lo, hi := q.MinSideFrac, q.MaxSideFrac
	if lo == 0 {
		lo = core.DefaultMinSideFrac
	}
	if hi == 0 {
		hi = core.DefaultMaxSideFrac
	}
	density := f.Density()
	space := geom.SolutionSpace(geom.Rect{Min: dmin, Max: dmax}, lo, hi)
	best, calls := time.Duration(math.MaxInt64), 0
	// Two passes, each after a forced collection, keeping the faster:
	// a GC cycle or preemption inside one pass would otherwise inflate
	// the weights' time past what the traced loop spent.
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		var busy time.Duration
		calls = 0
		weight := func(vec []float64) float64 {
			start := time.Now()
			x, l := geom.DecodeRegion(vec)
			w := density.BoxMass(geom.FromCenter(x, l))
			busy += time.Since(start)
			calls++
			return w
		}
		res, err := gso.RunContext(ctx, params, space, obj, gso.Options{InvalidWalk: 1, Weight: weight})
		if err != nil {
			return 0, 0, err
		}
		for i := range res.Positions {
			if !sameFloats(res.Positions[i], traced.Positions[i]) {
				return 0, 0, fmt.Errorf("weight replay diverged from the traced swarm at glowworm %d", i)
			}
		}
		best = min(best, busy)
	}
	return best, calls, nil
}

// evaluateAllocs counts the allocations of Engine.Evaluate over the
// query's regions.
func (tp *tracePass) evaluateAllocs(eng *surf.Engine, regions []core.Region) {
	if len(regions) == 0 {
		return
	}
	centers := make([][2][]float64, len(regions))
	for i, r := range regions {
		centers[i] = [2][]float64{r.Rect.Center(), r.Rect.HalfSides()}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range centers {
		eng.Evaluate(c[0], c[1])
	}
	runtime.ReadMemStats(&after)
	tp.st.evalAllocs += int(after.Mallocs - before.Mallocs)
	tp.st.evalAllocRuns += len(regions)
}

// traceAppend times Registry.Append and re-times its sub-steps —
// Store.Append, Engine.SetDataset and the drift replay — on the
// scratch engine and store, as virtual children.
func (tp *tracePass) traceAppend(ctx context.Context, id int, r *request) error {
	root := tp.tr.open(id, "request", -1)
	sp := tp.tr.open(id, "registry.append", root)
	_, err := tp.fx.reg.Append(ctx, datasetName, r.rows)
	tp.tr.close(sp)
	tp.tr.close(root)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := tp.scratchStore.Append(r.rows); err != nil {
		return err
	}
	d := time.Since(start)
	tp.tr.add(id, "dataset.append", sp, start, d, true)
	tp.st.storeAppend += d

	ds, version := tp.scratchStore.View()
	start = time.Now()
	d, err = fastest(func() error { return tp.scratch.SetDataset(ds, version) })
	if err != nil {
		return err
	}
	tp.tr.add(id, "surf.set_dataset", sp, start, d, true)
	tp.st.setData += d

	h, err := tp.fx.reg.Acquire(ctx, datasetName)
	if err != nil {
		return err
	}
	start = time.Now()
	d, err = fastest(func() error {
		_, err := drift.Evaluate(ctx, h.Engine(), tp.samples)
		return err
	})
	h.Release()
	if err != nil {
		return err
	}
	tp.tr.add(id, "drift.evaluate", sp, start, d, true)
	tp.st.drift += d
	tp.st.appendReg += time.Duration(tp.tr.spans[sp].Dur)
	tp.st.appends++
	tp.account(root)
	return nil
}

// fastest runs a repeatable step three times and returns its fastest
// time, so a re-timed sub-step is not inflated by one slow pass.
func fastest(step func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start))
	}
	return best, nil
}

// saveModel serializes an engine's surrogate.
func saveModel(ctx context.Context, eng *surf.Engine) (io.Reader, error) {
	var buf bytes.Buffer
	if err := eng.SaveSurrogateContext(ctx, &buf); err != nil {
		return nil, err
	}
	return &buf, nil
}
