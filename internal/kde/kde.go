// Package kde implements multivariate Gaussian kernel density
// estimation with a diagonal bandwidth matrix.
//
// SuRF approximates the data distribution pA(a) with a KDE (over a
// sample for large datasets) and multiplies each glowworm's selection
// probability by the KDE mass of the candidate region (paper
// Section III-B, Eq. 8), steering particles away from parts of the
// solution space where the surrogate extrapolates into data-free
// territory. For a product Gaussian kernel the box mass
// ∫_{x−l}^{x+l} pA(a) da has the closed form
//
//	(1/n) Σ_s Π_j [Φ((hi_j − s_j)/h_j) − Φ((lo_j − s_j)/h_j)]
//
// where Φ is the standard normal CDF, so no numeric quadrature is
// needed.
package kde

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"surf/internal/geom"
)

// KDE is a fitted kernel density estimate.
type KDE struct {
	points    [][]float64 // sample points (row major)
	bandwidth []float64   // per-dimension kernel bandwidth h_j > 0
	dims      int
}

// ErrEmptySample reports fitting on no points.
var ErrEmptySample = errors.New("kde: empty sample")

// Options configure fitting.
type Options struct {
	// MaxSample caps the number of points retained; when the input is
	// larger a uniform subsample is drawn (the paper fits the KDE
	// "over a sample for large-scale datasets"). 0 means keep all.
	MaxSample int
	// Bandwidth overrides the per-dimension bandwidths. Empty means
	// use Scott's rule.
	Bandwidth []float64
	// Rng drives subsampling. Required only when MaxSample truncates.
	Rng *rand.Rand
}

// Fit estimates a KDE over the given points (rows are observations).
// Bandwidths default to Scott's rule h_j = σ_j · n^(−1/(d+4)), with a
// small floor for degenerate (constant) dimensions.
func Fit(points [][]float64, opts Options) (*KDE, error) {
	if len(points) == 0 {
		return nil, ErrEmptySample
	}
	for i, p := range points {
		if len(p) != len(points[0]) {
			return nil, fmt.Errorf("kde: point %d has dimension %d, want %d", i, len(p), len(points[0]))
		}
	}
	return FitRows(len(points), func(i int) []float64 { return points[i] }, opts)
}

// FitRows is Fit over n points built on demand: row(i) returns point
// i, and it is called only for the points the sample keeps, in sample
// order. A caller holding the data in another layout (columns, say)
// then builds MaxSample points rather than n. Given Rng in the same
// state, FitRows fits exactly the KDE Fit fits over all n points.
func FitRows(n int, row func(i int) []float64, opts Options) (*KDE, error) {
	if n == 0 {
		return nil, ErrEmptySample
	}
	idx, err := sampleIndex(n, opts)
	if err != nil {
		return nil, err
	}
	sample := make([][]float64, len(idx))
	for i, j := range idx {
		sample[i] = row(j)
	}
	dims := len(sample[0])
	if dims == 0 {
		return nil, errors.New("kde: zero-dimensional points")
	}
	for i, p := range sample {
		if len(p) != dims {
			return nil, fmt.Errorf("kde: point %d has dimension %d, want %d", idx[i], len(p), dims)
		}
	}
	k := &KDE{points: sample, dims: dims}
	if len(opts.Bandwidth) > 0 {
		if len(opts.Bandwidth) != dims {
			return nil, fmt.Errorf("kde: %d bandwidths for %d dimensions", len(opts.Bandwidth), dims)
		}
		for j, h := range opts.Bandwidth {
			if h <= 0 {
				return nil, fmt.Errorf("kde: bandwidth %d is %g, want > 0", j, h)
			}
		}
		k.bandwidth = append([]float64(nil), opts.Bandwidth...)
		return k, nil
	}
	k.bandwidth = scottBandwidth(sample, dims)
	return k, nil
}

// sampleIndex returns the indices of the n points a fit keeps, in
// sample order: all of them in order, or the first MaxSample entries
// of a uniform permutation drawn from Rng when MaxSample truncates.
func sampleIndex(n int, opts Options) ([]int, error) {
	if opts.MaxSample <= 0 || n <= opts.MaxSample {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	if opts.Rng == nil {
		return nil, errors.New("kde: MaxSample truncation requires Options.Rng")
	}
	return opts.Rng.Perm(n)[:opts.MaxSample], nil
}

// scottBandwidth computes h_j = σ_j n^(−1/(d+4)) (Scott's rule for a
// diagonal-bandwidth Gaussian KDE).
func scottBandwidth(points [][]float64, dims int) []float64 {
	n := float64(len(points))
	factor := math.Pow(n, -1/(float64(dims)+4))
	h := make([]float64, dims)
	for j := 0; j < dims; j++ {
		var mean, m2 float64
		for i, p := range points {
			delta := p[j] - mean
			mean += delta / float64(i+1)
			m2 += delta * (p[j] - mean)
		}
		sigma := 0.0
		if len(points) > 1 {
			sigma = math.Sqrt(m2 / (n - 1))
		}
		h[j] = sigma * factor
		if h[j] <= 1e-12 {
			h[j] = 1e-3 // degenerate dimension: tiny but positive
		}
	}
	return h
}

// Dims returns the dimensionality of the estimate.
func (k *KDE) Dims() int { return k.dims }

// SampleSize returns the number of retained sample points.
func (k *KDE) SampleSize() int { return len(k.points) }

// Bandwidth returns the per-dimension bandwidths (a copy).
func (k *KDE) Bandwidth() []float64 { return append([]float64(nil), k.bandwidth...) }

// Density evaluates the estimated density pA at point p.
func (k *KDE) Density(p []float64) float64 {
	if len(p) != k.dims {
		panic(fmt.Sprintf("kde: Density point of dimension %d, want %d", len(p), k.dims))
	}
	norm := 1.0
	for _, h := range k.bandwidth {
		norm *= h * math.Sqrt(2*math.Pi)
	}
	var sum float64
	for _, s := range k.points {
		prod := 1.0
		for j := 0; j < k.dims; j++ {
			z := (p[j] - s[j]) / k.bandwidth[j]
			prod *= math.Exp(-0.5 * z * z)
		}
		sum += prod
	}
	return sum / (float64(len(k.points)) * norm)
}

// BoxMass returns ∫_box pA(a) da, the probability a draw from the
// estimate falls inside the axis-aligned box. This is the weight of
// paper Eq. 8.
func (k *KDE) BoxMass(box geom.Rect) float64 {
	if box.Dims() != k.dims {
		panic(fmt.Sprintf("kde: BoxMass box of dimension %d, want %d", box.Dims(), k.dims))
	}
	var sum float64
	for _, s := range k.points {
		prod := 1.0
		for j := 0; j < k.dims; j++ {
			h := k.bandwidth[j]
			prod *= normCDF((box.Max[j]-s[j])/h) - normCDF((box.Min[j]-s[j])/h)
			if prod == 0 {
				break
			}
		}
		sum += prod
	}
	return sum / float64(len(k.points))
}

// Sample draws one point from the estimate: a uniformly chosen sample
// point plus per-dimension Gaussian noise at the bandwidth scale.
func (k *KDE) Sample(rng *rand.Rand) []float64 {
	s := k.points[rng.IntN(len(k.points))]
	out := make([]float64, k.dims)
	for j := 0; j < k.dims; j++ {
		out[j] = s[j] + rng.NormFloat64()*k.bandwidth[j]
	}
	return out
}

// GridDensity evaluates the density on a regular res×res grid over the
// first two dimensions of the domain (other dimensions, if any, are
// fixed at the domain center). It backs the Fig. 5 heatmaps.
func (k *KDE) GridDensity(domain geom.Rect, res int) [][]float64 {
	if domain.Dims() != k.dims {
		panic(fmt.Sprintf("kde: GridDensity domain of dimension %d, want %d", domain.Dims(), k.dims))
	}
	if k.dims < 2 {
		panic("kde: GridDensity requires at least 2 dimensions")
	}
	out := make([][]float64, res)
	center := domain.Center()
	p := append([]float64(nil), center...)
	for i := 0; i < res; i++ {
		out[i] = make([]float64, res)
		p[0] = domain.Min[0] + (float64(i)+0.5)*(domain.Max[0]-domain.Min[0])/float64(res)
		for j := 0; j < res; j++ {
			p[1] = domain.Min[1] + (float64(j)+0.5)*(domain.Max[1]-domain.Min[1])/float64(res)
			out[i][j] = k.Density(p)
		}
	}
	return out
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
