package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"surf/internal/gbt/kernel"
)

func TestRunValidation(t *testing.T) {
	if err := runContext(context.Background(), "fig2", "bogus", ""); err == nil {
		t.Error("expected error for unknown scale")
	}
	if err := runContext(context.Background(), "nope", "small", ""); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	// fig2 is the cheapest experiment with real output.
	if err := runContext(context.Background(), "fig2", "small", dir); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "fig2_datasets.csv")
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("CSV output is empty")
	}
}

func TestRunCommaSeparatedList(t *testing.T) {
	if err := runContext(context.Background(), "fig2,fig7", "small", ""); err != nil {
		t.Fatal(err)
	}
}

// shrinkBench makes the inference benchmark cheap for tests.
func shrinkBench(t *testing.T) {
	t.Helper()
	trees, depth, window := benchTrees, benchDepth, benchWindow
	sizes := inferenceBatchSizes
	benchTrees, benchDepth, benchWindow = 20, 4, time.Millisecond
	inferenceBatchSizes = []int{1, 64}
	t.Cleanup(func() {
		benchTrees, benchDepth, benchWindow = trees, depth, window
		inferenceBatchSizes = sizes
	})
}

func TestInferenceBenchWritesJSON(t *testing.T) {
	shrinkBench(t)
	dir := t.TempDir()
	if err := runInferenceBench(dir, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_inference.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep inferenceReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "inference" || rep.Trees != 20 || len(rep.Trajectory) != 2 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	// The benchmark measures the production compile: the binned kernel.
	if rep.Kernel != kernel.BinnedName || rep.Nodes <= 0 || rep.Features <= 0 {
		t.Fatalf("kernel %q, nodes %d, features %d", rep.Kernel, rep.Nodes, rep.Features)
	}
	for _, p := range rep.Trajectory {
		if p.NsPerRowWalk <= 0 || p.NsPerRowBatch <= 0 || p.Speedup <= 0 || p.RowsPerSecBatch <= 0 {
			t.Fatalf("non-positive measurement: %+v", p)
		}
	}
	if rep.SpeedupAt64 != rep.Trajectory[1].Speedup {
		t.Errorf("speedup_at_64 %v != trajectory batch-64 %v", rep.SpeedupAt64, rep.Trajectory[1].Speedup)
	}
	// The gate reads the median of the alternating rounds' ratios.
	if rep.Rounds != benchRounds || len(rep.RoundSpeedupsAt64) != benchRounds {
		t.Fatalf("rounds %d with %d batch-64 ratios, want %d", rep.Rounds, len(rep.RoundSpeedupsAt64), benchRounds)
	}
	if m := median(rep.RoundSpeedupsAt64); m != rep.SpeedupAt64 {
		t.Errorf("speedup_at_64 %v is not the median %v of the round ratios %v", rep.SpeedupAt64, m, rep.RoundSpeedupsAt64)
	}
}

func TestInferenceBenchSpeedupGate(t *testing.T) {
	shrinkBench(t)
	// An impossible bar must fail, and must do so via error (not exit).
	if err := runInferenceBench("", 1e9); err == nil {
		t.Error("expected gate failure for absurd -min-speedup")
	}
}

// shrinkTrainBench makes the training benchmark cheap for tests.
func shrinkTrainBench(t *testing.T) {
	t.Helper()
	rows, feats, trees, depth := trainBenchRows, trainBenchFeats, trainBenchTrees, trainBenchDepth
	trainBenchRows, trainBenchFeats, trainBenchTrees, trainBenchDepth = 2000, 4, 5, 4
	t.Cleanup(func() {
		trainBenchRows, trainBenchFeats, trainBenchTrees, trainBenchDepth = rows, feats, trees, depth
	})
}

func TestTrainingBenchWritesJSON(t *testing.T) {
	shrinkTrainBench(t)
	dir := t.TempDir()
	if err := runTrainingBench(dir, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_training.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep trainingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "training" || rep.Rows != 2000 || rep.Trees != 5 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if !rep.Identical {
		t.Fatal("serial and parallel models must be byte-identical")
	}
	for _, p := range []trainingPoint{rep.Serial, rep.Parallel} {
		if p.WallSeconds <= 0 || p.RowsPerSec <= 0 || p.Workers < 1 {
			t.Fatalf("non-positive measurement: %+v", p)
		}
	}
	if rep.Serial.Workers != 1 {
		t.Errorf("serial point ran with %d workers, want 1", rep.Serial.Workers)
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup = %g, want > 0", rep.Speedup)
	}
}

func TestTrainingBenchSpeedupGate(t *testing.T) {
	shrinkTrainBench(t)
	if err := runTrainingBench("", 1e9); err == nil {
		t.Error("expected gate failure for absurd -min-speedup")
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{3, 1, 2}
	if m := median(odd); m != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", m)
	}
	if odd[0] != 3 || odd[1] != 1 {
		t.Errorf("median reordered its input: %v", odd)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", m)
	}
}
