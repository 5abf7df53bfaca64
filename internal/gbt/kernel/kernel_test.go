package kernel

import (
	"math"
	"sync"
	"testing"

	"surf/internal/obs"
)

// TestBinOf: binOf(cuts, v) counts the cuts strictly below v, which is
// exactly the rank equivalence the binned walk relies on:
// v ≤ cuts[k] ⟺ binOf(v) ≤ k for every v including ±Inf.
func TestBinOf(t *testing.T) {
	cutSets := [][]float64{
		{},
		{0.5},
		{math.Inf(-1), -2, math.Copysign(0, -1), 1e-308, 0.5, 3, math.Inf(1)},
		{-1, 0, 1},
	}
	probes := []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), -1e300, -2, -1,
		math.Copysign(0, -1), 0, 1e-308, math.Nextafter(0.5, 0), 0.5,
		math.Nextafter(0.5, 1), 1, 3, 1e300,
	}
	for _, cuts := range cutSets {
		for _, v := range probes {
			got := int(binOf(cuts, v))
			if math.IsNaN(v) {
				if got != len(cuts) {
					t.Fatalf("binOf(%v, NaN) = %d, want past-the-end %d", cuts, got, len(cuts))
				}
				continue
			}
			below := 0
			for _, c := range cuts {
				if c < v {
					below++
				}
			}
			if got != below {
				t.Fatalf("binOf(%v, %v) = %d, want %d", cuts, v, got, below)
			}
			for k := range cuts {
				if (v <= cuts[k]) != (got <= k) {
					t.Fatalf("rank equivalence broken: v=%v cuts=%v k=%d bin=%d", v, cuts, k, got)
				}
			}
		}
	}
}

// leafOf builds a leaf node carrying weight w.
func leafOf(w float64) Node { return Node{Feature: LeafFeature, Threshold: w} }

// stump builds a one-split tree: feature f at threshold thr with leaf
// weights lw (≤) and rw (>).
func stump(f int32, thr, lw, rw float64) []Node {
	return []Node{{Feature: f, Threshold: thr, Left: 1, Right: 2}, leafOf(lw), leafOf(rw)}
}

// assertParity checks that the binned model of e agrees bit-for-bit
// with the scalar reference on every row, one at a time and in batch.
func assertParity(t *testing.T, e Ensemble, rows [][]float64) {
	t.Helper()
	ref := compileScalar(e)
	want := make([]float64, len(rows))
	ref.PredictBatch(rows, want)
	for i, row := range rows {
		if p := ref.Predict1(row); math.Float64bits(p) != math.Float64bits(want[i]) {
			t.Fatalf("scalar Predict1 %v != its own PredictBatch %v on row %d", p, want[i], i)
		}
	}
	m, err := compileBinned(e)
	if err != nil {
		t.Fatalf("compileBinned: %v", err)
	}
	out := make([]float64, len(rows))
	m.PredictBatch(rows, out)
	for i, row := range rows {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("binned PredictBatch[%d] = %v, scalar %v (row %v)", i, out[i], want[i], row)
		}
		if p := m.Predict1(row); math.Float64bits(p) != math.Float64bits(want[i]) {
			t.Fatalf("binned Predict1 %v, scalar %v (row %v)", p, want[i], row)
		}
	}
}

// TestParityHandcrafted pins the adversarial shapes the fuzz target
// explores: duplicate thresholds across trees, ±Inf cuts, rows landing
// exactly on cuts and one ULP either side, NaN rows, single-leaf trees
// and batches around the 4-row lockstep remainder.
func TestParityHandcrafted(t *testing.T) {
	e := Ensemble{
		BaseScore:   0.25,
		NumFeatures: 3,
		Trees: [][]Node{
			{leafOf(1.5)}, // single-leaf tree: pure base contribution
			stump(0, 0.5, -1, 2),
			stump(0, 0.5, 3, -4), // duplicate threshold, same feature
			stump(1, math.Inf(1), 0.5, -0.5),
			stump(1, math.Inf(-1), -0.25, 0.125),
			stump(2, math.Copysign(0, -1), 1, -1), // -0.0 cut: ties with +0.0 rows
			{ // depth-2 tree reusing feature 0 with a second distinct cut
				{Feature: 0, Threshold: 1.5, Left: 1, Right: 2},
				{Feature: 2, Threshold: 0.5, Left: 3, Right: 4},
				leafOf(-8), leafOf(32), leafOf(64),
			},
		},
	}

	var rows [][]float64
	for _, v := range []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), -1e300,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
		math.Copysign(0, -1), 0, 1e-308, 1.5, 2, 1e300,
	} {
		rows = append(rows, []float64{v, v, v})
	}
	rows = append(rows,
		[]float64{0.5, math.Inf(1), 0},
		[]float64{math.NaN(), 0.5, math.NaN()},
	)
	// Exercise every batch-size class: empty tail, 4-lockstep body,
	// 1–3 row remainders.
	for _, n := range []int{0, 1, 2, 3, 4, 5, len(rows)} {
		assertParity(t, e, rows[:n])
	}
}

// lopsided builds a tree of the given depth with a leaf at depth 1
// and one path down to the bottom: split k tests feature k mod nfeat
// at threshold k/4, one child is a leaf and the other the next split
// (the right child, or the left when mirrored).
func lopsided(depth int, nfeat int32, mirrored bool) []Node {
	var t []Node
	for k := 0; k < depth; k++ {
		i := int32(len(t))
		split := Node{Feature: int32(k) % nfeat, Threshold: float64(k) / 4, Left: i + 1, Right: i + 2}
		if mirrored {
			split.Left, split.Right = split.Right, split.Left
		}
		t = append(t, split, leafOf(0.1*float64(k+1)))
	}
	return append(t, leafOf(1e16))
}

// TestParityFixedDepthShapes holds the binned kernel's fixed-depth
// walks to the scalar walk on the shapes they are most likely to get
// wrong: trees of very different depths sharing a four-tree lockstep
// group (a single leaf, a stump, lopsided trees with a leaf at depth 1
// next to one deep path), every ensemble size from 0 to 9 trees (so
// every tree-group remainder), and every batch size from 1 to 9 (so
// four-row groups with every row remainder). Leaf weights mix
// magnitudes, so a changed summation order would show in the bits.
func TestParityFixedDepthShapes(t *testing.T) {
	const nfeat = 3
	shapes := [][]Node{
		{leafOf(-0.3)},
		stump(1, 0.25, -1e16, 0.7),
		lopsided(7, nfeat, false),
		lopsided(4, nfeat, true),
		{
			{Feature: 2, Threshold: 0.5, Left: 1, Right: 2},
			{Feature: 0, Threshold: math.Inf(-1), Left: 3, Right: 4},
			leafOf(1e-3),
			leafOf(3), leafOf(-5),
		},
	}
	vals := []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), -1, 0, 0.25,
		math.Nextafter(0.5, 1), 0.75, 1.5, 3,
	}
	rows := make([][]float64, 9)
	for r := range rows {
		rows[r] = make([]float64, nfeat)
		for j := range rows[r] {
			rows[r][j] = vals[(3*r+7*j)%len(vals)]
		}
	}
	for ntrees := 0; ntrees <= 9; ntrees++ {
		for shift := range shapes {
			e := Ensemble{BaseScore: 0.125, NumFeatures: nfeat}
			for i := 0; i < ntrees; i++ {
				e.Trees = append(e.Trees, shapes[(i+shift)%len(shapes)])
			}
			for n := 1; n <= len(rows); n++ {
				assertParity(t, e, rows[:n])
			}
		}
	}
}

// TestCompileFallback: an ensemble past the binned encoding limits
// must fail compileBinned, and Compile must then serve it through the
// scalar encoding — reported by Model.Name so the engine's
// SurrogateInfo.Kernel can never lie about what is serving.
func TestCompileFallback(t *testing.T) {
	// 65536 distinct cuts on feature 0: one stump per cut.
	e := Ensemble{NumFeatures: 1}
	for i := 0; i <= binnedLimit; i++ {
		e.Trees = append(e.Trees, stump(0, float64(i), 0, 1))
	}
	if _, err := compileBinned(e); err == nil {
		t.Fatal("compileBinned accepted >65535 distinct cuts")
	}
	m := Compile(e)
	if m.Name() != ScalarName {
		t.Fatalf("fallback model reports %s, want %s", m.Name(), ScalarName)
	}
	if got, want := m.Predict1([]float64{-1}), float64(0); got != want {
		t.Fatalf("fallback Predict1 = %v, want %v", got, want)
	}

	// Too many features trips the other limit; a single leaf keeps the
	// ensemble tiny.
	wide := Ensemble{NumFeatures: binnedLimit + 1, Trees: [][]Node{{leafOf(2)}}}
	if _, err := compileBinned(wide); err == nil {
		t.Fatal("compileBinned accepted >65535 features")
	}
	if m := Compile(wide); m.Name() != ScalarName {
		t.Fatalf("wide fallback reports %s, want %s", m.Name(), ScalarName)
	}

	// In range, Compile serves the binned encoding.
	if m := Compile(Ensemble{NumFeatures: 1, Trees: [][]Node{stump(0, 0.5, 1, 2)}}); m.Name() != BinnedName {
		t.Fatalf("in-range Compile reports %s, want %s", m.Name(), BinnedName)
	}
}

// TestPredictPanicsOnMisSizedInput: both encodings validate the whole
// batch up front — output length and every row's width, not just row
// 0 — and stay usable after the panic.
func TestPredictPanicsOnMisSizedInput(t *testing.T) {
	e := Ensemble{NumFeatures: 2, Trees: [][]Node{stump(0, 0.5, 1, 2), stump(1, -1, 3, 4)}}
	binned, err := compileBinned(e)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 2}, {3, 4}, {0, -5}}
	badRow2 := [][]float64{{1, 2}, {3, 4}, {5}}
	want := make([]float64, len(good))
	compileScalar(e).PredictBatch(good, want)
	for _, m := range []Model{binned, compileScalar(e)} {
		out := make([]float64, len(good))
		mustPanic(t, m.Name()+" PredictBatch short out", func() { m.PredictBatch(good, out[:2]) })
		mustPanic(t, m.Name()+" PredictBatch bad row 2", func() { m.PredictBatch(badRow2, out) })
		mustPanic(t, m.Name()+" Predict1 bad row", func() { m.Predict1([]float64{1}) })
		m.PredictBatch(nil, nil) // empty batches are no-ops
		m.PredictBatch(good, out)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("%s: PredictBatch[%d] = %v, want %v", m.Name(), i, out[i], want[i])
			}
		}
	}
}

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestConcurrentPredictBatch: the binned model's pooled bin scratch
// must keep concurrent batch calls independent.
func TestConcurrentPredictBatch(t *testing.T) {
	e := Ensemble{NumFeatures: 2}
	for i := 0; i < 50; i++ {
		e.Trees = append(e.Trees, stump(int32(i%2), float64(i%7)*0.25, float64(i), -float64(i)))
	}
	m, err := compileBinned(e)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{float64(i%13) * 0.17, float64(i%11) * 0.21}
	}
	want := make([]float64, len(rows))
	compileScalar(e).PredictBatch(rows, want)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(rows))
			for it := 0; it < 50; it++ {
				m.PredictBatch(rows, out)
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("concurrent PredictBatch[%d] = %v, want %v", i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInstrumentCounters: models built through Compile account rows,
// batches and kernel time to the process-wide per-kernel counters that
// /metrics exports.
func TestInstrumentCounters(t *testing.T) {
	e := Ensemble{NumFeatures: 1, Trees: [][]Node{stump(0, 0.5, 1, 2)}}
	m := Compile(e)
	st := obs.Kernel(m.Name())
	rows0, batches0 := st.Rows.Value(), st.Batches.Value()

	out := make([]float64, 3)
	m.PredictBatch([][]float64{{0}, {1}, {2}}, out)
	m.Predict1([]float64{0})

	if got := st.Rows.Value() - rows0; got != 4 {
		t.Fatalf("rows counter advanced by %d, want 4", got)
	}
	if got := st.Batches.Value() - batches0; got != 2 {
		t.Fatalf("batches counter advanced by %d, want 2", got)
	}
	found := false
	for _, k := range obs.KernelSnapshot() {
		if k.Name == m.Name() {
			found = true
		}
	}
	if !found {
		t.Fatalf("KernelSnapshot missing kernel %q", m.Name())
	}
}
