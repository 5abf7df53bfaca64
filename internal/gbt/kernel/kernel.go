//surf:deterministic (both encodings must predict bit-identically to the trained ensemble)

// Package kernel compiles a trained ensemble (in the neutral Ensemble
// form) into the immutable Model that serves every surrogate
// prediction: the core batch objective, the GSO batch evaluators and
// Engine prediction all talk only to Model.
//
// Compile is the one compile path. It builds the "binned" encoding,
// which quantizes thresholds into per-feature cut ranks at compile
// time and walks uint16 bin indices. Its leaves loop to themselves, so
// every walk takes exactly its tree's depth in steps with no per-node
// leaf test: four rows walk one tree in lockstep, and a lone row (a
// one-row batch, or a batch's last rows) walks four trees in lockstep
// instead. When the ensemble exceeds that
// encoding (more than 65535 features, or more than 65535 distinct
// cuts on one feature) it falls back to "scalar", the portable
// flat-node float64 traversal, which represents everything and doubles
// as the reference the parity tests compare against.
//
// The contract is strict bit-identity: for any ensemble and any row —
// including NaN and ±Inf values — both encodings' Predict1 and
// PredictBatch return exactly the float64 the trained model's own
// tree walk returns (same traversal decisions, same summation order).
// Differential tests and the FuzzKernelParity target hold them to it.
package kernel

// Model is a compiled, immutable inference snapshot of one ensemble.
// Models are safe for concurrent use. Predict1 and PredictBatch panic
// on dimension mismatches — callers validate at the public boundary
// (core.Surrogate and Engine.PredictStatisticBatch return wrapped
// sentinel errors there).
type Model interface {
	// Name reports the encoding serving this model (BinnedName or
	// ScalarName).
	Name() string
	// Predict1 returns the prediction for a single raw feature row.
	Predict1(row []float64) float64
	// PredictBatch writes predictions for every row of X into out
	// without allocating on the steady state: out must have exactly
	// len(X) entries and every row the ensemble's feature count.
	PredictBatch(X [][]float64, out []float64)
}

// Compile builds the binned model of e, or the scalar one when
// binning cannot represent the ensemble, and wraps the result with
// the process-wide activity counters exported through /metrics. Every
// production compilation goes through here, so a model that fell back
// reports the encoding actually serving it via Model.Name.
func Compile(e Ensemble) Model {
	if m, err := compileBinned(e); err == nil {
		return instrument(m)
	}
	return instrument(compileScalar(e))
}

// bfsOrder lays one tree's nodes out breadth-first starting at node 0:
// both children of a split are enqueued back-to-back, so siblings land
// in adjacent slots and the right child index is always left+1. It
// returns the visit order (old indices) and the old→new index map,
// offset by off; the caller-supplied slices are reused across trees.
func bfsOrder(nodes []Node, off int32, order, newIdx []int32) ([]int32, []int32) {
	order = append(order[:0], 0)
	if cap(newIdx) < len(nodes) {
		newIdx = make([]int32, len(nodes))
	}
	newIdx = newIdx[:len(nodes)]
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		newIdx[old] = off + int32(qi)
		if n := &nodes[old]; n.Feature != LeafFeature {
			order = append(order, n.Left, n.Right)
		}
	}
	return order, newIdx
}
