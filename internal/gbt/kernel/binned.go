//surf:deterministic (both encodings must predict bit-identically to the trained ensemble)

package kernel

import (
	"fmt"
	"sort"
	"sync"
)

// BinnedName names the quantized fast-path encoding.
const BinnedName = "binned"

// binnedLimit caps feature indices (0xFFFF is the leaf sentinel) and
// distinct cuts per feature (bins run 0..len(cuts) inclusive).
const binnedLimit = 65535

// leafSentinel marks a leaf in bnode.feature.
const leafSentinel = uint16(0xFFFF)

// bnode is one binned tree node in 8 bytes — half the scalar cnode.
// Internal nodes: feature, the threshold's cut rank, and the absolute
// index of the left child (right child at childBase+1, by bfsOrder).
// Leaves: feature is leafSentinel and childBase indexes the model's
// leaf-weight array.
type bnode struct {
	childBase int32
	feature   uint16
	binCut    uint16
}

// tileRows is the row-blocking factor: a tile's bin matrix
// (tileRows × features × 2 bytes) stays L1-resident while every tree
// streams over it.
const tileRows = 256

// binnedModel is the pre-binned uint16 fast path. At compile time
// every feature's distinct split thresholds are collected into a
// sorted cut array and each node's threshold is replaced by its rank
// in that array. At predict time each row is binned once — a
// branchless binary search per feature maps the float64 value v to
// binOf(v) = |{c ∈ cuts : c < v}| — and tree traversal then compares
// small integers instead of float64s against nodes packed into 8
// bytes, so twice as many nodes fit per cache line as in the scalar
// layout and the per-node float load disappears.
//
// Binning by rank (not by rounded value) preserves the exact ≤/>
// partition each float64 threshold induces: for sorted distinct cuts,
// v ≤ cuts[k] ⟺ binOf(v) ≤ k for every v including ±Inf, so the
// integer comparison replays the float comparison decision-for-
// decision. NaN fails every ≤ test in the float walk and is mapped to
// the past-the-end bin, which exceeds every rank — NaN rows go right
// in both worlds. Predictions are therefore bit-identical to the
// scalar encoding's.
//
// The uint16 encoding bounds what one model can hold: at most 65535
// features and 65535 distinct cuts per feature. compileBinned returns
// an error beyond those limits and Compile falls back to scalar.
type binnedModel struct {
	baseScore float64
	nfeat     int
	// cuts[f] is feature f's sorted distinct thresholds; binFeats
	// lists the features that actually split (the rest never need
	// binning).
	cuts     [][]float64
	binFeats []int32
	roots    []int32
	nodes    []bnode
	// weights holds the leaf weights, indexed by leaf childBase.
	weights []float64
	// scratch pools per-batch bin matrices so concurrent PredictBatch
	// calls (one per swarm worker) never contend or allocate in the
	// steady state.
	scratch sync.Pool
}

// compileBinned builds the binned model of e, or returns an error when
// e exceeds the uint16 encoding.
func compileBinned(e Ensemble) (*binnedModel, error) {
	if e.NumFeatures > binnedLimit {
		return nil, fmt.Errorf("kernel: binned encoding supports at most %d features, ensemble has %d",
			binnedLimit, e.NumFeatures)
	}
	// Per-feature distinct sorted cuts.
	cuts := make([][]float64, e.NumFeatures)
	for _, t := range e.Trees {
		for i := range t {
			if n := &t[i]; n.Feature != LeafFeature {
				cuts[n.Feature] = append(cuts[n.Feature], n.Threshold)
			}
		}
	}
	var binFeats []int32
	for f := range cuts {
		if len(cuts[f]) == 0 {
			continue
		}
		sort.Float64s(cuts[f])
		w := 1
		for i := 1; i < len(cuts[f]); i++ {
			if cuts[f][i] != cuts[f][w-1] {
				cuts[f][w] = cuts[f][i]
				w++
			}
		}
		cuts[f] = cuts[f][:w]
		if w > binnedLimit {
			return nil, fmt.Errorf("kernel: binned encoding supports at most %d cuts per feature, feature %d has %d",
				binnedLimit, f, w)
		}
		binFeats = append(binFeats, int32(f))
	}

	m := &binnedModel{
		baseScore: e.BaseScore,
		nfeat:     e.NumFeatures,
		cuts:      cuts,
		binFeats:  binFeats,
		roots:     make([]int32, 0, len(e.Trees)),
		nodes:     make([]bnode, 0, e.NumNodes()),
	}
	var order []int32
	var newIdx []int32
	for _, t := range e.Trees {
		off := int32(len(m.nodes))
		m.roots = append(m.roots, off)
		order, newIdx = bfsOrder(t, off, order, newIdx)
		for _, old := range order {
			n := &t[old]
			if n.Feature == LeafFeature {
				m.weights = append(m.weights, n.Threshold)
				m.nodes = append(m.nodes, bnode{feature: leafSentinel, childBase: int32(len(m.weights) - 1)})
				continue
			}
			// The threshold's rank in its feature's cut array; present
			// by construction, so SearchFloat64s finds it exactly.
			rank := sort.SearchFloat64s(cuts[n.Feature], n.Threshold)
			m.nodes = append(m.nodes, bnode{
				childBase: newIdx[n.Left],
				feature:   uint16(n.Feature),
				binCut:    uint16(rank),
			})
		}
	}
	return m, nil
}

func (m *binnedModel) Name() string { return BinnedName }

// binOf maps a row value to its bin: the number of cuts strictly
// below v, found by a branchless binary search (the half-width update
// compiles to a conditional move, so bin lookups never mispredict).
// NaN maps past the end, exceeding every rank — the right-child
// choice the float walk makes for NaN.
func binOf(cuts []float64, v float64) uint16 {
	if v != v {
		return uint16(len(cuts))
	}
	base, n := 0, len(cuts)
	for n > 1 {
		half := n >> 1
		if cuts[base+half-1] < v {
			base += half
		}
		n -= half
	}
	if n == 1 && cuts[base] < v {
		base++
	}
	return uint16(base)
}

// gtBin is the integer twin of the scalar gt selector: 0 when the
// row's bin is ≤ the node's cut rank (go left), else 1.
func gtBin(a, b uint16) int32 {
	if a <= b {
		return 0
	}
	return 1
}

// getBins leases a bin matrix of at least n entries from the pool.
func (m *binnedModel) getBins(n int) []uint16 {
	if p, ok := m.scratch.Get().(*[]uint16); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]uint16, n)
}

func (m *binnedModel) putBins(b []uint16) { m.scratch.Put(&b) }

// binRow fills bins with one row's per-feature bin indices.
func (m *binnedModel) binRow(row []float64, bins []uint16) {
	for _, f := range m.binFeats {
		bins[f] = binOf(m.cuts[f], row[f])
	}
}

// leafWeight walks one tree over a pre-binned row and returns the
// reached leaf's weight index.
func (m *binnedModel) leafWeight(root int32, bins []uint16) int32 {
	nodes := m.nodes
	idx := root
	for {
		n := nodes[idx]
		if n.feature == leafSentinel {
			return n.childBase
		}
		idx = n.childBase + gtBin(bins[n.feature], n.binCut)
	}
}

// Predict1 returns the prediction for a single raw feature row,
// bit-for-bit equal to the trained model's tree walk.
func (m *binnedModel) Predict1(row []float64) float64 {
	if len(row) != m.nfeat {
		panic(fmt.Sprintf("kernel: Predict1 row of dimension %d, want %d", len(row), m.nfeat))
	}
	bins := m.getBins(m.nfeat)
	defer m.putBins(bins)
	m.binRow(row, bins)
	out := m.baseScore
	for _, root := range m.roots {
		out += m.weights[m.leafWeight(root, bins)]
	}
	return out
}

// PredictBatch writes predictions for every row of X into out: out
// must have exactly len(X) entries and every row NumFeatures columns
// (all rows are validated up front). Rows are blocked into L1-sized
// tiles; each tile is binned once, then every tree streams over the
// tile's uint16 bin matrix with four rows in traversal lockstep. The
// per-row sums accumulate in ensemble order, keeping results
// bit-for-bit equal to Predict1 (and to the scalar encoding). Safe
// for concurrent calls: tile scratch is pooled per call.
func (m *binnedModel) PredictBatch(X [][]float64, out []float64) {
	if len(out) != len(X) {
		panic(fmt.Sprintf("kernel: PredictBatch output of length %d for %d rows", len(out), len(X)))
	}
	for i, row := range X {
		if len(row) != m.nfeat {
			panic(fmt.Sprintf("kernel: PredictBatch row %d of dimension %d, want %d", i, len(row), m.nfeat))
		}
	}
	nf := m.nfeat
	bins := m.getBins(tileRows * nf)
	defer m.putBins(bins)
	for lo := 0; lo < len(X); lo += tileRows {
		hi := lo + tileRows
		if hi > len(X) {
			hi = len(X)
		}
		tile, touts := X[lo:hi], out[lo:hi]
		for r, row := range tile {
			m.binRow(row, bins[r*nf:(r+1)*nf])
			touts[r] = m.baseScore
		}
		nodes := m.nodes
		for _, root := range m.roots {
			i := 0
			for ; i+4 <= len(tile); i += 4 {
				b0 := bins[(i+0)*nf : (i+1)*nf]
				b1 := bins[(i+1)*nf : (i+2)*nf]
				b2 := bins[(i+2)*nf : (i+3)*nf]
				b3 := bins[(i+3)*nf : (i+4)*nf]
				n0, n1, n2, n3 := root, root, root, root
				f0 := nodes[n0].feature
				f1, f2, f3 := f0, f0, f0
				for f0 != leafSentinel || f1 != leafSentinel || f2 != leafSentinel || f3 != leafSentinel {
					if f0 != leafSentinel {
						n := nodes[n0]
						n0 = n.childBase + gtBin(b0[f0], n.binCut)
						f0 = nodes[n0].feature
					}
					if f1 != leafSentinel {
						n := nodes[n1]
						n1 = n.childBase + gtBin(b1[f1], n.binCut)
						f1 = nodes[n1].feature
					}
					if f2 != leafSentinel {
						n := nodes[n2]
						n2 = n.childBase + gtBin(b2[f2], n.binCut)
						f2 = nodes[n2].feature
					}
					if f3 != leafSentinel {
						n := nodes[n3]
						n3 = n.childBase + gtBin(b3[f3], n.binCut)
						f3 = nodes[n3].feature
					}
				}
				touts[i] += m.weights[nodes[n0].childBase]
				touts[i+1] += m.weights[nodes[n1].childBase]
				touts[i+2] += m.weights[nodes[n2].childBase]
				touts[i+3] += m.weights[nodes[n3].childBase]
			}
			for ; i < len(tile); i++ {
				touts[i] += m.weights[m.leafWeight(root, bins[i*nf:(i+1)*nf])]
			}
		}
	}
}
