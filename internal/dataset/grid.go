package dataset

import (
	"errors"
	"fmt"
	"math"

	"surf/internal/geom"
	"surf/internal/stats"
)

// GridIndex buckets rows into a uniform grid over the filter dimensions
// so region evaluations touch only overlapping cells. Cells that fall
// entirely inside the query region are answered from pre-merged partial
// aggregates when the statistic is decomposable; boundary cells fall
// back to per-row tests. This is the classic spatial-aggregation
// speedup the paper contrasts with (Section VI, aggregate R-trees) —
// it accelerates the f-backed baselines but still scales with N,
// unlike the surrogate.
type GridIndex struct {
	d    *Dataset
	spec Spec
	// filters[j] is the data column of filter dimension j, and target
	// the target column (nil when the statistic needs none); both are
	// resolved once here so evaluations allocate nothing for them.
	filters [][]float64
	target  []float64
	// res is the number of cells per dimension.
	res int
	// domain bounds of the filter columns.
	domain geom.Rect
	// width of a cell per dimension.
	width []float64
	// bounds[j] holds the res+1 cell boundary positions of dimension
	// j: cell c spans [bounds[j][c], bounds[j][c+1]]. Cell membership
	// and cell rects are both defined from this one array so they can
	// never disagree; the last boundary is clamped to the true domain
	// maximum because rows at the domain edge are assigned to the last
	// cell even when float accumulation leaves min + res·width short
	// of it.
	bounds [][]float64
	// rows lists the row indices in each cell (mixed-radix cell id).
	rows [][]int32
	// Pre-merged partials per cell for decomposable statistics.
	count   []int32
	sum     []float64
	minv    []float64
	maxv    []float64
	nonzero []int32
}

// maxGridCells caps memory: with res^d > maxGridCells the resolution is
// reduced per dimension.
const maxGridCells = 1 << 20

// maxGridDims is the most filter dimensions a grid index takes: two
// cells per dimension already reach maxGridCells. It also sizes the
// per-evaluation cell-coordinate arrays, which stay on the stack.
const maxGridDims = 20

// ErrGridTooWide reports a spec with so many filter dimensions that
// even two cells per dimension exceed maxGridCells (d > maxGridDims).
var ErrGridTooWide = errors.New("dataset: too many filter dimensions for a grid index")

// NewGridIndex builds a grid index with the given per-dimension
// resolution (use 0 for an automatic choice). Specs over more than 20
// filter dimensions return ErrGridTooWide.
func NewGridIndex(d *Dataset, spec Spec, res int) (*GridIndex, error) {
	if err := spec.Validate(d); err != nil {
		return nil, err
	}
	dims := len(spec.FilterCols)
	if dims > maxGridDims {
		return nil, fmt.Errorf("%w: %d", ErrGridTooWide, dims)
	}
	if res <= 0 {
		// Aim for ~an average of a few dozen rows per occupied cell in
		// low dimensions while respecting the global cell cap.
		res = int(math.Ceil(math.Pow(float64(d.Len())/16+1, 1/float64(dims))))
		if res < 2 {
			res = 2
		}
		if res > 256 {
			res = 256
		}
	}
	for pow(res, dims) > maxGridCells && res > 2 {
		res--
	}
	g := &GridIndex{d: d, spec: spec, res: res, filters: make([][]float64, dims)}
	for j, c := range spec.FilterCols {
		g.filters[j] = d.cols[c]
	}
	if spec.Stat.NeedsTarget() {
		g.target = d.cols[spec.TargetCol]
	}
	g.domain = d.Domain(spec.FilterCols)
	g.width = make([]float64, dims)
	g.bounds = make([][]float64, dims)
	for j := 0; j < dims; j++ {
		w := (g.domain.Max[j] - g.domain.Min[j]) / float64(res)
		if w <= 0 {
			w = 1 // degenerate dimension: everything lands in cell 0
		}
		g.width[j] = w
		b := make([]float64, res+1)
		for k := range b {
			b[k] = g.domain.Min[j] + float64(k)*w
		}
		if b[res] < g.domain.Max[j] {
			b[res] = g.domain.Max[j]
		}
		g.bounds[j] = b
	}
	cells := pow(res, dims)
	g.rows = make([][]int32, cells)
	g.count = make([]int32, cells)
	g.sum = make([]float64, cells)
	g.minv = make([]float64, cells)
	g.maxv = make([]float64, cells)
	g.nonzero = make([]int32, cells)
	for c := range g.minv {
		g.minv[c] = math.Inf(1)
		g.maxv[c] = math.Inf(-1)
	}
	coord := make([]int, dims)
	for i := 0; i < d.Len(); i++ {
		for j, col := range g.filters {
			coord[j] = g.cellOf(col[i], j)
		}
		id := g.cellID(coord)
		g.rows[id] = append(g.rows[id], int32(i))
		g.count[id]++
		var tv float64
		if g.target != nil {
			tv = g.target[i]
		}
		g.sum[id] += tv
		if tv < g.minv[id] {
			g.minv[id] = tv
		}
		if tv > g.maxv[id] {
			g.maxv[id] = tv
		}
		if tv != 0 {
			g.nonzero[id]++
		}
	}
	return g, nil
}

// Spec returns the index's spec.
func (g *GridIndex) Spec() Spec { return g.spec }

// Dims returns the region dimensionality.
func (g *GridIndex) Dims() int { return len(g.spec.FilterCols) }

// Resolution returns the per-dimension cell count.
func (g *GridIndex) Resolution() int { return g.res }

// cellOf maps a coordinate to its cell: the c with bounds[c] ≤ v <
// bounds[c+1], clamped to [0, res). The division only provides a
// starting hint; the fixup walk makes the result exactly consistent
// with the boundary array (and therefore with cellInside), which float
// rounding of min + c·width alone cannot guarantee.
func (g *GridIndex) cellOf(v float64, dim int) int {
	c := int((v - g.domain.Min[dim]) / g.width[dim])
	if c < 0 {
		c = 0
	}
	if c >= g.res {
		c = g.res - 1
	}
	b := g.bounds[dim]
	for c > 0 && v < b[c] {
		c--
	}
	for c < g.res-1 && v >= b[c+1] {
		c++
	}
	return c
}

func (g *GridIndex) cellID(coord []int) int {
	id := 0
	for _, c := range coord {
		id = id*g.res + c
	}
	return id
}

// cellInside reports whether the cell at coord lies inside region
// (region.ContainsRect of the cell's extent), comparing in place
// against the same boundary array cellOf assigns rows with: every row
// mapped into the cell lies inside that extent, so a region that
// contains it may take the pre-merged interior fast path without
// disagreeing with a per-row test.
func (g *GridIndex) cellInside(region geom.Rect, coord []int) bool {
	for j, c := range coord {
		if g.bounds[j][c] < region.Min[j] || g.bounds[j][c+1] > region.Max[j] {
			return false
		}
	}
	return true
}

// Evaluate computes f over the region using the grid.
func (g *GridIndex) Evaluate(region geom.Rect) (float64, int) {
	dims := g.Dims()
	if region.Dims() != dims {
		panic(fmt.Sprintf("dataset: region of dimension %d for index of dimension %d", region.Dims(), dims))
	}
	customFn, isCustom := stats.CustomFunc(g.spec.Stat)

	// Cell coordinate range overlapped by the region, on fixed-size
	// stack arrays: NewGridIndex caps dims at maxGridDims.
	var loBuf, hiBuf, coordBuf [maxGridDims]int
	lo, hi := loBuf[:dims], hiBuf[:dims]
	for j := 0; j < dims; j++ {
		if region.Max[j] < g.domain.Min[j] || region.Min[j] > g.domain.Max[j] {
			// Custom statistics define their own empty-set value, so
			// an off-domain region goes through the registered
			// function exactly as the scan evaluators do.
			if isCustom {
				return customFn(nil), 0
			}
			return g.emptyResult()
		}
		lo[j] = g.cellOf(region.Min[j], j)
		hi[j] = g.cellOf(region.Max[j], j)
	}

	coord := coordBuf[:dims]
	if isCustom {
		return g.evaluateCustom(region, lo, hi, coord, customFn)
	}
	decomposable := g.spec.Stat.Decomposable()
	var acc stats.Accumulator
	if !decomposable {
		acc = g.spec.Stat.NewAccumulator()
	}
	filters, target := g.filters, g.target

	// Merged partials for the decomposable path.
	var mCount, mNonzero int
	var mSum float64
	mMin, mMax := math.Inf(1), math.Inf(-1)

	copy(coord, lo)
	for {
		id := g.cellID(coord)
		if g.count[id] > 0 {
			interior := g.cellInside(region, coord)
			if interior && decomposable {
				mCount += int(g.count[id])
				mNonzero += int(g.nonzero[id])
				mSum += g.sum[id]
				if g.minv[id] < mMin {
					mMin = g.minv[id]
				}
				if g.maxv[id] > mMax {
					mMax = g.maxv[id]
				}
			} else {
				for _, ri := range g.rows[id] {
					i := int(ri)
					inside := true
					if !interior {
						for j := range filters {
							v := filters[j][i]
							if v < region.Min[j] || v > region.Max[j] {
								inside = false
								break
							}
						}
					}
					if !inside {
						continue
					}
					var tv float64
					if target != nil {
						tv = target[i]
					}
					if decomposable {
						mCount++
						mSum += tv
						if tv < mMin {
							mMin = tv
						}
						if tv > mMax {
							mMax = tv
						}
						if tv != 0 {
							mNonzero++
						}
					} else {
						acc.Add(tv)
					}
				}
			}
		}
		// Advance mixed-radix coordinate within [lo, hi].
		j := dims - 1
		for ; j >= 0; j-- {
			coord[j]++
			if coord[j] <= hi[j] {
				break
			}
			coord[j] = lo[j]
		}
		if j < 0 {
			break
		}
	}

	if decomposable {
		return g.finishDecomposable(mCount, mNonzero, mSum, mMin, mMax)
	}
	if acc.Count() == 0 {
		return math.NaN(), 0
	}
	return acc.Value(), acc.Count()
}

// evaluateCustom visits the cells overlapped by [lo, hi], collects
// the in-region rows (interior cells wholesale, boundary cells after
// per-row tests) and applies the registered row function. Custom
// statistics are non-decomposable, so the pre-merged partials are
// unusable; the row lists still restrict the scan to overlapping
// cells. coord is the caller's scratch for the cell cursor.
func (g *GridIndex) evaluateCustom(region geom.Rect, lo, hi, coord []int, fn stats.RowFunc) (float64, int) {
	dims := g.Dims()
	filters := g.filters
	var idx []int
	copy(coord, lo)
	for {
		id := g.cellID(coord)
		if g.count[id] > 0 {
			interior := g.cellInside(region, coord)
		cellRows:
			for _, ri := range g.rows[id] {
				i := int(ri)
				if !interior {
					for j := range filters {
						v := filters[j][i]
						if v < region.Min[j] || v > region.Max[j] {
							continue cellRows
						}
					}
				}
				idx = append(idx, i)
			}
		}
		j := dims - 1
		for ; j >= 0; j-- {
			coord[j]++
			if coord[j] <= hi[j] {
				break
			}
			coord[j] = lo[j]
		}
		if j < 0 {
			break
		}
	}
	return fn(g.d.materializeRows(idx)), len(idx)
}

func (g *GridIndex) emptyResult() (float64, int) {
	switch g.spec.Stat {
	case stats.Count:
		return 0, 0
	case stats.Sum:
		return 0, 0
	default:
		return math.NaN(), 0
	}
}

func (g *GridIndex) finishDecomposable(count, nonzero int, sum, minV, maxV float64) (float64, int) {
	if count == 0 {
		return g.emptyResult()
	}
	switch g.spec.Stat {
	case stats.Count:
		return float64(count), count
	case stats.Sum:
		return sum, count
	case stats.Mean:
		return sum / float64(count), count
	case stats.Min:
		return minV, count
	case stats.Max:
		return maxV, count
	case stats.Ratio:
		return float64(nonzero) / float64(count), count
	}
	panic(fmt.Sprintf("dataset: finishDecomposable on %v", g.spec.Stat))
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		if out > maxGridCells {
			return out
		}
		out *= base
	}
	return out
}
