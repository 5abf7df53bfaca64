package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	surf "surf"
	"surf/registry"
)

// checkTally counts correctness comparisons and mismatches.
type checkTally struct {
	checked, failed int
}

func (t *checkTally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "correctness: "+format+"\n", args...)
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffResult describes the first difference between two results, or
// returns "" when they agree bit for bit on everything but the
// elapsed time.
func diffResult(a, b *surf.Result) string {
	switch {
	case a == nil || b == nil:
		return "missing result"
	case len(a.Regions) != len(b.Regions):
		return fmt.Sprintf("%d regions vs %d", len(a.Regions), len(b.Regions))
	case !sameFloat(a.ValidParticleFraction, b.ValidParticleFraction):
		return "valid particle fraction differs"
	case !sameFloat(a.ComplianceRate, b.ComplianceRate):
		return "compliance differs"
	}
	for i := range a.Regions {
		x, y := &a.Regions[i], &b.Regions[i]
		if !sameFloats(x.Min, y.Min) || !sameFloats(x.Max, y.Max) || !sameFloat(x.Estimate, y.Estimate) ||
			!sameFloat(x.Score, y.Score) || x.Worms != y.Worms || !sameFloat(x.TrueValue, y.TrueValue) ||
			x.Verified != y.Verified || x.Satisfies != y.Satisfies {
			return fmt.Sprintf("region %d differs", i)
		}
	}
	return ""
}

// reference computes a request's results in process, through a
// registry handle.
func reference(ctx context.Context, h *registry.Handle, r *request) ([]*surf.Result, error) {
	if r.kind == kindTopK {
		res, err := h.FindTopK(ctx, r.topk)
		return []*surf.Result{res}, err
	}
	var out []*surf.Result
	for _, q := range r.queries() {
		res, err := h.Find(ctx, q)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// checkSample compares a fixed sample of the window's HTTP results —
// the first perKind successful requests of each kind — with the same
// queries answered in process by ref, a registry built from the same
// data and seed whose cache has not seen them.
func checkSample(ctx context.Context, ref *fixture, lr *loadResult, perKind int, t *checkTally) error {
	h, err := ref.reg.Acquire(ctx, datasetName)
	if err != nil {
		return err
	}
	defer h.Release()
	taken := map[kind]int{}
	for i := range lr.outcomes {
		o := &lr.outcomes[i]
		if !o.ok || o.req.kind == kindAppend || taken[o.req.kind] >= perKind {
			continue
		}
		taken[o.req.kind]++
		t.checked++
		want, err := reference(ctx, h, o.req)
		if err != nil {
			t.fail("%s in process: %v", o.req.kind, err)
			continue
		}
		for j := range want {
			if d := diffResult(o.results[j], want[j]); d != "" {
				t.fail("%s over HTTP vs in process: %s", o.req.kind, d)
			}
		}
	}
	return nil
}

// checkIngest verifies the living dataset after ingest-kde's window:
// the served row count and data version equal the base plus the
// acknowledged appends; a reference registry given the same appends
// answers fixed queries bit-identically to the server; and an engine
// opened over the flat equivalent (base rows then appended rows, with
// the served surrogate) answers them identically too.
func checkIngest(ctx context.Context, g *gen, serving, ref *fixture, lr *loadResult, t *checkTally) error {
	var batches [][][]float64
	for i := range lr.outcomes {
		o := &lr.outcomes[i]
		if o.req.kind != kindAppend || !o.ok {
			continue
		}
		batches = append(batches, o.req.rows)
		t.checked++
		if want := uint64(1 + len(batches)); o.version != want || o.rows != len(serving.data.base)+len(batches)*appendRows {
			t.fail("append %d acknowledged %d rows at data version %d, want %d at %d",
				len(batches), o.rows, o.version, len(serving.data.base)+len(batches)*appendRows, want)
		}
	}
	if len(batches) == 0 {
		t.fail("no append was acknowledged")
	}
	rows := append([][]float64(nil), serving.data.base...)
	for _, b := range batches {
		rows = append(rows, b...)
		if _, err := ref.reg.Append(ctx, datasetName, b); err != nil {
			return err
		}
	}
	for _, fx := range []*fixture{serving, ref} {
		st, err := fx.reg.Status(datasetName)
		if err != nil {
			return err
		}
		t.checked++
		if st.Rows != len(rows) || st.DataVersion != uint64(1+len(batches)) {
			t.fail("store holds %d rows at version %d, want %d at %d", st.Rows, st.DataVersion, len(rows), 1+len(batches))
		}
	}

	flatData, err := surfDataset(serving.data.names, rows)
	if err != nil {
		return err
	}
	flat, err := surf.Open(flatData, engineConfig(serving.data.names))
	if err != nil {
		return err
	}
	sh, err := serving.reg.Acquire(ctx, datasetName)
	if err != nil {
		return err
	}
	model, err := saveModel(ctx, sh.Engine())
	sh.Release()
	if err != nil {
		return err
	}
	if err := flat.LoadSurrogateContext(ctx, model); err != nil {
		return err
	}
	rh, err := ref.reg.Acquire(ctx, datasetName)
	if err != nil {
		return err
	}
	defer rh.Release()
	cl := newClient(serving.url)
	defer cl.close()
	for i := 0; i < 3; i++ {
		r := g.kdeQuery(900_000 + i)
		t.checked++
		o := cl.do(ctx, &r, time.Now())
		if !o.ok {
			t.fail("check query over HTTP: %s", o.err)
			continue
		}
		want, err := rh.Find(ctx, r.query)
		if err != nil {
			return err
		}
		got, err := flat.FindContext(ctx, r.query)
		if err != nil {
			return err
		}
		if d := diffResult(o.results[0], want); d != "" {
			t.fail("grown store over HTTP vs reference registry: %s", d)
		}
		if d := diffResult(got, want); d != "" {
			t.fail("flat engine vs grown store: %s", d)
		}
	}
	return nil
}
