package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"surf/internal/gbt"
	"surf/internal/gbt/kernel"
)

// Inference benchmark mode (-json): measures the surrogate inference
// hot path — row-at-a-time Model.Predict1 versus the production
// compiled model's PredictBatch — across swarm-sized batches and writes
// the trajectory to BENCH_inference.json. The compiled outputs are
// first asserted bit-identical to the naive walk, so the numbers always
// describe equivalent computations. Walk and batch are timed
// alternately, batch size by batch size, over benchRounds rounds, so
// a drift in machine speed lands on both sides of each round's ratio;
// the reported speedup is the median of the per-round ratios. CI runs
// this on every push, uploads the file as an artifact and (with
// -min-speedup) gates on the batch-64 speedup.

// inferencePoint is one batch-size measurement: the median walk and
// batch times over the rounds, and the median of the per-round
// speedups.
type inferencePoint struct {
	Batch           int     `json:"batch"`
	NsPerRowWalk    float64 `json:"ns_per_row_walk"`
	NsPerRowBatch   float64 `json:"ns_per_row_batch"`
	RowsPerSecWalk  float64 `json:"rows_per_sec_walk"`
	RowsPerSecBatch float64 `json:"rows_per_sec_batch"`
	Speedup         float64 `json:"speedup"`
}

// inferenceReport is the BENCH_inference.json payload. Kernel names
// the compiled encoding measured (always binned: a fallback to scalar
// on the benchmark ensemble fails the run).
type inferenceReport struct {
	Name        string           `json:"name"`
	GoVersion   string           `json:"go_version"`
	GOARCH      string           `json:"goarch"`
	Trees       int              `json:"trees"`
	Nodes       int              `json:"nodes"`
	Features    int              `json:"features"`
	Kernel      string           `json:"kernel"`
	Rounds      int              `json:"rounds"`
	Trajectory  []inferencePoint `json:"trajectory"`
	SpeedupAt64 float64          `json:"speedup_at_64"`
	// RoundSpeedupsAt64 are the per-round batch-64 speedups whose
	// median is SpeedupAt64.
	RoundSpeedupsAt64 []float64 `json:"round_speedups_at_64"`
	MaxSpeedup        float64   `json:"max_speedup"`
}

// inferenceBatchSizes are the measured batch sizes; 64 is the smallest
// shard a default swarm hands each worker, 1024 a full large swarm.
var inferenceBatchSizes = []int{1, 64, 256, 1024}

// Benchmark knobs, overridden by the tests to keep them fast; the
// defaults size the ensemble well past L2 so the per-row walk pays the
// full cache cost it pays in production swarms.
var (
	benchTrees  = 300
	benchDepth  = 8
	benchWindow = 100 * time.Millisecond
	benchRounds = 5
)

// runInferenceBench trains a deterministic ensemble, measures the walk
// and the compiled batch path, and writes BENCH_inference.json under
// out. A minSpeedup > 0 turns the batch-64 speedup into a hard gate.
func runInferenceBench(out string, minSpeedup float64) error {
	rep, err := measureInference()
	if err != nil {
		return err
	}
	fmt.Printf("inference benchmark: %d trees, %d nodes, %d features, kernel %s (%s %s), median of %d rounds\n",
		rep.Trees, rep.Nodes, rep.Features, rep.Kernel, rep.GoVersion, rep.GOARCH, rep.Rounds)
	fmt.Printf("%8s  %14s  %14s  %14s  %8s\n", "batch", "walk ns/row", "batch ns/row", "rows/s", "speedup")
	for _, p := range rep.Trajectory {
		fmt.Printf("%8d  %14.0f  %14.0f  %14.0f  %7.2fx\n",
			p.Batch, p.NsPerRowWalk, p.NsPerRowBatch, p.RowsPerSecBatch, p.Speedup)
	}

	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, "BENCH_inference.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if minSpeedup > 0 && rep.SpeedupAt64 < minSpeedup {
		return fmt.Errorf("%s batch-64 speedup %.2fx (median of rounds %.2f) below required %.2fx",
			rep.Kernel, rep.SpeedupAt64, rep.RoundSpeedupsAt64, minSpeedup)
	}
	return nil
}

// measureInference builds the benchmark ensemble, compiles it the way
// every engine does, proves the compiled outputs bit-identical to the
// naive walk, and collects the trajectory.
func measureInference() (*inferenceReport, error) {
	maxBatch := inferenceBatchSizes[len(inferenceBatchSizes)-1]
	m, probes, err := gbt.BenchEnsemble(benchTrees, benchDepth, maxBatch)
	if err != nil {
		return nil, err
	}
	c := m.Compile()
	if c.Name() != kernel.BinnedName {
		return nil, fmt.Errorf("benchmark ensemble fell back to the %s kernel", c.Name())
	}

	// Bit-identity against the walk before any timing: a compiled model
	// that diverges would make the speedup meaningless.
	out := make([]float64, maxBatch)
	c.PredictBatch(probes, out)
	for i, row := range probes {
		if w := m.Predict1(row); out[i] != w {
			return nil, fmt.Errorf("kernel %s diverges from the model walk at row %d: %v != %v",
				c.Name(), i, out[i], w)
		}
	}

	rep := &inferenceReport{
		Name:      "inference",
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Trees:     m.NumTrees(),
		Nodes:     m.Ensemble().NumNodes(),
		Features:  m.NumFeatures(),
		Kernel:    c.Name(),
	}
	var sink float64
	walkNs := make([][]float64, len(inferenceBatchSizes))
	batchNs := make([][]float64, len(inferenceBatchSizes))
	speedups := make([][]float64, len(inferenceBatchSizes))
	for range benchRounds {
		for i, batch := range inferenceBatchSizes {
			rows := probes[:batch]
			walk := measureNs(func() {
				for _, row := range rows {
					sink = m.Predict1(row)
				}
			}) / float64(batch)
			batched := measureNs(func() {
				c.PredictBatch(rows, out[:batch])
			}) / float64(batch)
			walkNs[i] = append(walkNs[i], walk)
			batchNs[i] = append(batchNs[i], batched)
			speedups[i] = append(speedups[i], walk/batched)
		}
	}
	_ = sink
	rep.Rounds = benchRounds
	for i, batch := range inferenceBatchSizes {
		walk, batched := median(walkNs[i]), median(batchNs[i])
		pt := inferencePoint{
			Batch:           batch,
			NsPerRowWalk:    walk,
			NsPerRowBatch:   batched,
			RowsPerSecWalk:  1e9 / walk,
			RowsPerSecBatch: 1e9 / batched,
			Speedup:         median(speedups[i]),
		}
		rep.Trajectory = append(rep.Trajectory, pt)
		if batch == 64 {
			rep.SpeedupAt64 = pt.Speedup
			rep.RoundSpeedupsAt64 = speedups[i]
		}
		if pt.Speedup > rep.MaxSpeedup {
			rep.MaxSpeedup = pt.Speedup
		}
	}
	return rep, nil
}

// median returns the middle value of v (the mean of the two middle
// values for an even count) without reordering v.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	h := len(s) / 2
	if len(s)%2 == 0 {
		return (s[h-1] + s[h]) / 2
	}
	return s[h]
}

// measureNs times one call of f, auto-scaling the repeat count until
// a sample window is long enough to trust, then keeps the fastest of
// three windows — the least-interfered sample — so a single preemption
// on a shared CI runner cannot tank the measured ratio.
func measureNs(f func()) float64 {
	f() // warm the caches the way steady-state serving would
	n := 1
	var best float64
	for {
		elapsed := timeN(f, n)
		if elapsed >= benchWindow {
			best = float64(elapsed.Nanoseconds()) / float64(n)
			break
		}
		if elapsed <= 0 {
			n *= 100
			continue
		}
		n = int(float64(n)*float64(benchWindow)/float64(elapsed)*1.2) + 1
	}
	for i := 0; i < 2; i++ {
		if v := float64(timeN(f, n).Nanoseconds()) / float64(n); v < best {
			best = v
		}
	}
	return best
}

// timeN times n back-to-back calls of f.
func timeN(f func(), n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start)
}
