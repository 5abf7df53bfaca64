package gbt

import (
	"fmt"
	"sync"
	"testing"

	"surf/internal/gbt/kernel"
)

// The inference micro-benchmarks compare the row-at-a-time node-walk
// baseline (BenchmarkPredict1) with the compiled flat-array batch
// predictor (BenchmarkPredictBatch) at swarm-sized batches. CI runs
// them on every push:
//
//	go test -bench=Predict -benchtime=200ms -run='^$' ./internal/gbt/
//
// The shared BenchEnsemble sizes the ensemble so its node arrays
// exceed the L2 cache — per-row walks then drag the whole model
// through the cache once per row, which is exactly the pattern the
// trees-outer/rows-inner batch loop avoids.
// BenchmarkPredictServed measures the shape the system actually
// serves instead.
type inferenceFixture struct {
	once sync.Once
	m    *Model
	c    kernel.Model
	X    [][]float64
	out  []float64
}

const inferenceBenchRows = 1024

var inferenceBench, servedBench inferenceFixture

// setup trains the fixture's ensemble on first use.
func (f *inferenceFixture) setup(trees, depth int) {
	f.once.Do(func() {
		m, probes, err := BenchEnsemble(trees, depth, inferenceBenchRows)
		if err != nil {
			panic(err)
		}
		f.m = m
		f.c = m.Compile()
		f.X = probes
		f.out = make([]float64, inferenceBenchRows)
	})
}

var benchSink float64

// BenchmarkPredict1 is the row-at-a-time baseline: one pointer-chasing
// tree walk per tree per row.
func BenchmarkPredict1(b *testing.B) {
	inferenceBench.setup(300, 8)
	for _, rows := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			X := inferenceBench.X[:rows]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range X {
					benchSink = inferenceBench.m.Predict1(row)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkPredictBatch is the compiled trees-outer/rows-inner batch
// path writing into a caller-owned buffer (0 allocs/op steady state).
func BenchmarkPredictBatch(b *testing.B) {
	inferenceBench.setup(300, 8)
	for _, rows := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			X := inferenceBench.X[:rows]
			out := inferenceBench.out[:rows]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inferenceBench.c.PredictBatch(X, out)
			}
			benchSink = out[0]
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkPredictServed is the compiled batch path on the ensemble
// shape the system serves: the default training parameters' 100 trees
// of depth 6, at the batch sizes the swarm hands the kernel — about
// 29 rows per batch on the 2-D serving workloads and about 167 on the
// default 3-D mining query.
func BenchmarkPredictServed(b *testing.B) {
	p := DefaultParams()
	servedBench.setup(p.NumTrees, p.MaxDepth)
	for _, rows := range []int{29, 167} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			X := servedBench.X[:rows]
			out := servedBench.out[:rows]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				servedBench.c.PredictBatch(X, out)
			}
			benchSink = out[0]
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
