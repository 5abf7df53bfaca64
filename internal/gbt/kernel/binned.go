//surf:deterministic (both encodings must predict bit-identically to the trained ensemble)

package kernel

import (
	"fmt"
	"sort"
	"sync"
)

// BinnedName names the quantized fast-path encoding.
const BinnedName = "binned"

// binnedLimit caps features and distinct cuts per feature (bins run
// 0..len(cuts) inclusive), so every cut rank sits below leafCut and
// no bin exceeds it.
const binnedLimit = 65535

// leafCut is a leaf's binCut. No bin exceeds it, so a step taken at a
// leaf always selects the "left" child — the leaf itself.
const leafCut = uint16(0xFFFF)

// bnode is one binned tree node in 8 bytes — half the scalar cnode.
// Internal nodes: feature, the threshold's cut rank, and the absolute
// index of the left child (right child at childBase+1, by bfsOrder).
// Leaves loop to themselves: childBase is the leaf's own index,
// feature 0 and binCut leafCut, so the one step rule
//
//	n = childBase + gtBin(bins[feature], binCut)
//
// serves every node and a walk needs no leaf test: it takes exactly
// its tree's depth in steps and lands on the same leaf the float walk
// reaches, however shallow that leaf is.
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
// Every walk is fixed-depth and branch-free: tree t is walked exactly
// depth[t] steps through self-looping leaves (see bnode), with no
// per-node leaf test, and the reached node's value is read from
// leaves. A row always pays its tree's full depth, even when its leaf
// is shallower; that costs nothing on the trees the trainer grows,
// which fill their depth almost completely (a default 100-tree,
// depth-6 surrogate over 3-D data has 11,820 of a possible 12,700
// nodes).
//
// Binning by rank (not by rounded value) preserves the exact ≤/>
// partition each float64 threshold induces: for sorted distinct cuts,
// v ≤ cuts[k] ⟺ binOf(v) ≤ k for every v including ±Inf, so the
// integer comparison replays the float comparison decision-for-
// decision. NaN fails every ≤ test in the float walk and is mapped to
// the past-the-end bin, which exceeds every rank — NaN rows go right
// in both worlds. Every row reaches the same leaf in every tree and
// the leaves are summed in tree order, so predictions are
// bit-identical to the scalar encoding's.
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
	// depth[t] is tree t's depth: the steps from its root to its
	// deepest leaf.
	depth []int32
	nodes []bnode
	// leaves[i] is node i's leaf weight (0 for internal nodes).
	leaves []float64
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
		depth:     make([]int32, 0, len(e.Trees)),
		nodes:     make([]bnode, 0, e.NumNodes()),
		leaves:    make([]float64, 0, e.NumNodes()),
	}
	var order, newIdx []int32
	for _, t := range e.Trees {
		off := int32(len(m.nodes))
		m.roots = append(m.roots, off)
		m.depth = append(m.depth, treeDepth(t, 0))
		order, newIdx = bfsOrder(t, off, order, newIdx)
		for _, old := range order {
			n := &t[old]
			if n.Feature == LeafFeature {
				m.nodes = append(m.nodes, bnode{childBase: int32(len(m.nodes)), binCut: leafCut})
				m.leaves = append(m.leaves, n.Threshold)
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
			m.leaves = append(m.leaves, 0)
		}
	}
	return m, nil
}

// treeDepth returns the steps from node i of t to its deepest leaf.
func treeDepth(t []Node, i int32) int32 {
	n := &t[i]
	if n.Feature == LeafFeature {
		return 0
	}
	return 1 + max(treeDepth(t, n.Left), treeDepth(t, n.Right))
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
// The lease is the pooled pointer itself, so returning it with
// putBins allocates nothing.
func (m *binnedModel) getBins(n int) *[]uint16 {
	if p, ok := m.scratch.Get().(*[]uint16); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]uint16, n)
	return &b
}

func (m *binnedModel) putBins(p *[]uint16) { m.scratch.Put(p) }

// binRow fills bins with one row's per-feature bin indices.
func (m *binnedModel) binRow(row []float64, bins []uint16) {
	for _, f := range m.binFeats {
		bins[f] = binOf(m.cuts[f], row[f])
	}
}

// walk4 walks four trees at once over one pre-binned row, each for
// the same number of steps (self-looping leaves make extra steps
// free), and returns the four reached nodes.
func (m *binnedModel) walk4(n0, n1, n2, n3, steps int32, bins []uint16) (int32, int32, int32, int32) {
	nodes := m.nodes
	for ; steps > 0; steps-- {
		x0, x1, x2, x3 := nodes[n0], nodes[n1], nodes[n2], nodes[n3]
		n0 = x0.childBase + gtBin(bins[x0.feature], x0.binCut)
		n1 = x1.childBase + gtBin(bins[x1.feature], x1.binCut)
		n2 = x2.childBase + gtBin(bins[x2.feature], x2.binCut)
		n3 = x3.childBase + gtBin(bins[x3.feature], x3.binCut)
	}
	return n0, n1, n2, n3
}

// predictRow adds every tree's leaf weight for one pre-binned row to
// out, in tree order. Trees go four at a time in lockstep, each group
// for the largest of its four depths, so the four dependent node
// loads overlap; the last len(roots) mod 4 trees walk alone.
func (m *binnedModel) predictRow(bins []uint16, out float64) float64 {
	roots, depth, leaves := m.roots, m.depth, m.leaves
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		steps := max(depth[t], depth[t+1], depth[t+2], depth[t+3])
		n0, n1, n2, n3 := m.walk4(roots[t], roots[t+1], roots[t+2], roots[t+3], steps, bins)
		out += leaves[n0]
		out += leaves[n1]
		out += leaves[n2]
		out += leaves[n3]
	}
	nodes := m.nodes
	for ; t < len(roots); t++ {
		n := roots[t]
		for steps := depth[t]; steps > 0; steps-- {
			x := nodes[n]
			n = x.childBase + gtBin(bins[x.feature], x.binCut)
		}
		out += leaves[n]
	}
	return out
}

// Predict1 returns the prediction for a single raw feature row,
// bit-for-bit equal to the trained model's tree walk.
func (m *binnedModel) Predict1(row []float64) float64 {
	if len(row) != m.nfeat {
		panic(fmt.Sprintf("kernel: Predict1 row of dimension %d, want %d", len(row), m.nfeat))
	}
	lease := m.getBins(m.nfeat)
	defer m.putBins(lease)
	bins := *lease
	m.binRow(row, bins)
	return m.predictRow(bins, m.baseScore)
}

// PredictBatch writes predictions for every row of X into out: out
// must have exactly len(X) entries and every row NumFeatures columns
// (all rows are validated up front). Rows are blocked into L1-sized
// tiles; each tile is binned once, then every tree streams over the
// tile's uint16 bin matrix with four rows walking it in lockstep for
// exactly the tree's depth. The tile's last len(tile) mod 4 rows go
// one at a time through predictRow, four trees in lockstep. Each
// row's sum accumulates in ensemble order either way, keeping results
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
	lease := m.getBins(tileRows * nf)
	defer m.putBins(lease)
	bins := *lease
	nodes, leaves := m.nodes, m.leaves
	for lo := 0; lo < len(X); lo += tileRows {
		hi := min(lo+tileRows, len(X))
		tile, touts := X[lo:hi], out[lo:hi]
		for r, row := range tile {
			m.binRow(row, bins[r*nf:(r+1)*nf])
			touts[r] = m.baseScore
		}
		quads := len(tile) &^ 3
		for t, root := range m.roots {
			depth := m.depth[t]
			for i := 0; i < quads; i += 4 {
				b0 := bins[(i+0)*nf : (i+1)*nf]
				b1 := bins[(i+1)*nf : (i+2)*nf]
				b2 := bins[(i+2)*nf : (i+3)*nf]
				b3 := bins[(i+3)*nf : (i+4)*nf]
				// walk4's step over four rows' bins in one tree,
				// written out: a call per row group measured slower.
				n0, n1, n2, n3 := root, root, root, root
				for steps := depth; steps > 0; steps-- {
					x0, x1, x2, x3 := nodes[n0], nodes[n1], nodes[n2], nodes[n3]
					n0 = x0.childBase + gtBin(b0[x0.feature], x0.binCut)
					n1 = x1.childBase + gtBin(b1[x1.feature], x1.binCut)
					n2 = x2.childBase + gtBin(b2[x2.feature], x2.binCut)
					n3 = x3.childBase + gtBin(b3[x3.feature], x3.binCut)
				}
				touts[i] += leaves[n0]
				touts[i+1] += leaves[n1]
				touts[i+2] += leaves[n2]
				touts[i+3] += leaves[n3]
			}
		}
		for i := quads; i < len(tile); i++ {
			touts[i] = m.predictRow(bins[i*nf:(i+1)*nf], touts[i])
		}
	}
}
