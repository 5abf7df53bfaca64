package surf

import "errors"

// Sentinel errors classifying API failures. Errors returned by this
// package wrap one of these where applicable, so callers can branch
// with errors.Is instead of matching message strings:
//
//	if errors.Is(err, surf.ErrNoSurrogate) {
//		// train or load a model, then retry
//	}
var (
	// ErrNoSurrogate reports an operation that needs a trained (or
	// loaded) surrogate on an engine that has none — Find without
	// UseTrueFunction, PredictStatistic, SaveSurrogate.
	ErrNoSurrogate = errors.New("surf: no surrogate trained")

	// ErrDimMismatch reports mismatched region dimensionality, e.g.
	// loading a 3-dim surrogate into a 2-dim engine, or passing
	// PredictStatistic a center or half-sides slice, or
	// PredictStatisticBatch a row, of the wrong width.
	ErrDimMismatch = errors.New("surf: dimension mismatch")

	// ErrBadConfig reports an invalid Config at Open time.
	ErrBadConfig = errors.New("surf: invalid configuration")

	// ErrUnknownColumn reports a filter or target column name absent
	// from the dataset.
	ErrUnknownColumn = errors.New("surf: unknown column")

	// ErrBadQuery reports an invalid Query or TopKQuery.
	ErrBadQuery = errors.New("surf: invalid query")

	// ErrBadArtifact reports a surrogate artifact that cannot be
	// loaded: corrupt or truncated bytes, an unsupported format
	// version, a spec that does not match the engine's (different
	// filter columns, statistic or target), or a custom statistic
	// that is not registered in this process.
	ErrBadArtifact = errors.New("surf: invalid surrogate artifact")
)
