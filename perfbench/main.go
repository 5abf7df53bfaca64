// Command perfbench is the repository's benchmark. It sets up a
// registry-backed SuRF server on a loopback listener, drives one named
// workload against it from the same process, checks that the answers
// are correct, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload mine-3d --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics over HTTP.
// With --trace 1 a shorter untraced window feeds the server-side
// figures, then a traced pass replays the workload's requests in
// process and reports per-layer metrics; its spans are written under
// --out. BENCHMARK.json lists every metric and each workload's reason.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	surf "surf"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: mine-3d, interactive-2d or ingest-kde")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 35, "length of the measured run")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for generated data and span files")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := run(ctx, *name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setups is how many times a run sets the system up; setup_s is the
// median. The first fixture serves the load, the second answers the
// correctness checks in process, the third takes the traced pass.
const setups = 3

func run(ctx context.Context, name string, seed uint64, seconds int, traced bool, outDir string) (*result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 || seconds > 60 {
		return nil, fmt.Errorf("--seconds %d outside 1..60", seconds)
	}
	dir := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var fixtures []*fixture
	defer func() {
		for _, f := range fixtures {
			_ = f.stop()
		}
	}()
	var setupS []float64
	for i := 0; i < setups; i++ {
		f, err := setUp(ctx, w, seed, dir, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		fixtures = append(fixtures, f)
		setupS = append(setupS, f.setup.Seconds())
	}
	serving, ref, trf := fixtures[0], fixtures[1], fixtures[2]
	// The reference and trace fixtures answer in process only.
	if err := ref.stop(); err != nil {
		return nil, err
	}
	if err := trf.stop(); err != nil {
		return nil, err
	}

	g := &gen{w: w, seed: seed, yr: serving.data.yr, pool: serving.data.pool}
	total := time.Duration(seconds) * time.Second
	window := total
	if traced {
		window = total * 2 / 5
	}
	lr, err := runLoad(ctx, w, g, serving, window)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := summarize(w, lr)
	st, err := serving.reg.Status(datasetName)
	if err != nil {
		return nil, err
	}

	checks := &checkTally{}
	if w.name == "ingest-kde" {
		err = checkIngest(ctx, g, serving, ref, lr, checks)
	} else {
		err = checkSample(ctx, ref, lr, 4, checks)
	}
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	cacheShare := ratio(float64(st.Cache.Hits), float64(s.queries))
	report(w, seed, lr, &s, cacheShare, checks)

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	if !traced {
		set("query_p50_ms", "ms", s.windowed(func(v []float64) float64 { return quantile(v, 0.5) }))
		set("throughput_qps", "1/s", float64(len(s.latencies))/lr.window.Seconds())
		set("slo_met_frac", "ratio", ratio(float64(s.sloMet), float64(s.queries)))
		set("compliance", "ratio", mean(s.compliance))
		set("setup_s", "s", quantile(setupS, 0.5))
		set("heap_mb", "MB", float64(mem.HeapAlloc)/(1<<20))
	} else {
		tp := &tracePass{w: w, fx: trf, tr: &tracer{epoch: time.Now()}, checks: checks, seen: map[string]*surf.Result{}}
		genS, trainS, err := tp.setupPhases(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up phases: %w", err)
		}
		deadline := time.Now().Add(total - window)
		if err := tp.run(ctx, traceRequests(w, g, 20000), deadline, 4); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		spans := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		if err := tp.tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tp.tr.spans), spans)
		trst, err := trf.reg.Status(datasetName)
		if err != nil {
			return nil, err
		}
		perLayer(set, &s, &tp.st, st, trst.LoadSeconds, genS, trainS, cacheShare)
	}
	return &result{
		Correct:   s.failed == 0 && checks.failed == 0,
		Attempted: s.attempted + checks.checked,
		Failed:    s.failed + checks.failed,
		Metrics:   m,
	}, nil
}
