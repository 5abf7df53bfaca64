package surf

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"surf/internal/gbt/kernel"
)

// inferenceEngine builds a small trained engine for the batch
// prediction tests.
func inferenceEngine(t *testing.T) *Engine {
	t.Helper()
	d := crimeGrid(5000, 31)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(900, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl); err != nil {
		t.Fatal(err)
	}
	return eng
}

// probeRows builds n flat [center..., halfSides...] rows for a 2-d
// engine.
func probeRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		f := float64(i) / float64(n)
		rows[i] = []float64{f, 1 - f, 0.04 + f/20, 0.1 - f/20}
	}
	return rows
}

// TestPredictStatisticBatch: the batch API must agree with per-region
// PredictStatistic bit-for-bit and validate its inputs.
func TestPredictStatisticBatch(t *testing.T) {
	eng := inferenceEngine(t)
	rows := probeRows(64)
	out := make([]float64, len(rows))
	if err := eng.PredictStatisticBatch(rows, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		want, err := eng.PredictStatistic(r[:2], r[2:])
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("row %d: batch %v != scalar %v", i, out[i], want)
		}
	}

	if err := eng.PredictStatisticBatch(rows, out[:10]); !errors.Is(err, ErrBadQuery) {
		t.Errorf("short output: got %v, want ErrBadQuery", err)
	}
	bad := probeRows(8)
	bad[5] = []float64{1, 2, 3}
	if err := eng.PredictStatisticBatch(bad, make([]float64, 8)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("bad row width: got %v, want ErrDimMismatch", err)
	}
	// The single-region form reports the same mistake as an error, not
	// a panic.
	for _, c := range []struct{ center, halfSides []float64 }{
		{[]float64{0.5}, []float64{0.1, 0.1}},
		{[]float64{0.5, 0.5}, []float64{0.1, 0.1, 0.1}},
		{nil, nil},
	} {
		if _, err := eng.PredictStatistic(c.center, c.halfSides); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("PredictStatistic(%v, %v): got %v, want ErrDimMismatch", c.center, c.halfSides, err)
		}
	}
}

// TestInferenceKernelSelection: an engine serves its surrogate through
// the binned kernel, reports it in SurrogateInfo, and predicts
// bit-identically to the trained model's own tree walk.
func TestInferenceKernelSelection(t *testing.T) {
	eng := inferenceEngine(t)
	if info, _ := eng.SurrogateInfo(); info.Kernel != kernel.BinnedName {
		t.Fatalf("engine serves %q, want %q", info.Kernel, kernel.BinnedName)
	}
	rows := probeRows(300)
	got := make([]float64, len(rows))
	if err := eng.PredictStatisticBatch(rows, got); err != nil {
		t.Fatal(err)
	}
	model := eng.surrogate.Load().surr.Model()
	for j, row := range rows {
		if want := model.Predict1(row); math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("engine diverges from the model walk at row %d: %v != %v", j, got[j], want)
		}
	}
}

// TestPredictStatisticBatchRequiresSurrogate covers the no-model path.
func TestPredictStatisticBatchRequiresSurrogate(t *testing.T) {
	d := crimeGrid(500, 33)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PredictStatisticBatch(probeRows(4), make([]float64, 4)); !errors.Is(err, ErrNoSurrogate) {
		t.Errorf("got %v, want ErrNoSurrogate", err)
	}
}

// TestConcurrentBatchPredictionDuringRetrain hammers the compiled
// predictor from several goroutines (batch probes and full Find
// queries) while the engine retrains and swaps surrogate snapshots —
// the race detector guards the atomic handoff of the compiled model.
func TestConcurrentBatchPredictionDuringRetrain(t *testing.T) {
	eng := inferenceEngine(t)
	wl, err := eng.GenerateWorkload(400, 35)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Retrainer: keep swapping fresh surrogate snapshots in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := eng.TrainSurrogate(wl, TrainOptions{Seed: uint64(i + 1)}); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
	}()

	// Batch probers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := probeRows(128)
			out := make([]float64, len(rows))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.PredictStatisticBatch(rows, out); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// A concurrent query exercising the batched swarm path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := Query{Threshold: 400, Above: true, Glowworms: 40, Iterations: 15, Workers: 2, SkipVerify: true, Seed: 77}
		for i := 0; i < 3; i++ {
			if _, err := eng.Find(q); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
}

// TestFindDeterministicAcrossWorkers: the public batched path must
// return identical results regardless of Workers, matching the
// documented contract.
func TestFindDeterministicAcrossWorkers(t *testing.T) {
	eng := inferenceEngine(t)
	q := Query{Threshold: 400, Above: true, Glowworms: 60, Iterations: 25, SkipVerify: true, Seed: 11}
	base, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	q.Workers = 4
	eng.cache.clear() // the key drops Workers, so a hit would prove nothing
	got, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Regions) != len(base.Regions) {
		t.Fatalf("%d regions with workers, %d without", len(got.Regions), len(base.Regions))
	}
	for i := range base.Regions {
		if got.Regions[i].Score != base.Regions[i].Score || got.Regions[i].Estimate != base.Regions[i].Estimate {
			t.Fatalf("region %d diverged across worker counts", i)
		}
	}
}

// TestResultsIndependentOfWorkers: Find, FindTopK and Stream return
// identical Results, and a stream the same incumbents, for Workers 0,
// 2 and 3. The swarm's evaluation shards over the workers, and
// Query.cacheKey drops Workers on the strength of this. The cache is cleared before every run so each one mines.
func TestResultsIndependentOfWorkers(t *testing.T) {
	eng := trainedEngine(t)
	type outcome struct {
		find, kde, topk, stream *Result
		incumbents              []Region
	}
	run := func(workers int) outcome {
		var o outcome
		var err error
		q := hotspotQuery()
		q.Iterations = 50
		q.Workers = workers
		eng.cache.clear()
		if o.find, err = eng.Find(q); err != nil {
			t.Fatal(err)
		}
		qk := q
		qk.UseKDE, qk.KDESample, qk.Glowworms = true, 100, 80
		eng.cache.clear()
		if o.kde, err = eng.Find(qk); err != nil {
			t.Fatal(err)
		}
		eng.cache.clear()
		if o.topk, err = eng.FindTopK(TopKQuery{K: 3, Largest: true, Iterations: 50, Seed: 5, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for ev, err := range st.Events() {
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := ev.(EventRegion); ok {
				o.incumbents = append(o.incumbents, r.Region)
			}
		}
		if o.stream, err = st.Result(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	base := run(0)
	if len(base.find.Regions) == 0 || len(base.kde.Regions) == 0 || len(base.topk.Regions) == 0 || len(base.incumbents) == 0 {
		t.Fatal("fixture queries found no regions; the comparison would prove nothing")
	}
	for _, workers := range []int{2, 3} {
		got := run(workers)
		sameResult(t, base.find, got.find)
		sameResult(t, base.kde, got.kde)
		sameResult(t, base.topk, got.topk)
		sameResult(t, base.stream, got.stream)
		if !regionsEqual(base.incumbents, got.incumbents) {
			t.Fatalf("workers=%d: stream incumbents differ: %d vs %d", workers, len(got.incumbents), len(base.incumbents))
		}
	}
}
