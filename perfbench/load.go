package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	surf "surf"
)

// client is one HTTP connection's worth of load: its transport keeps
// at most one connection, so a workload's clients bound the
// connections it opens.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one request returned.
type outcome struct {
	req     *request
	ok      bool
	err     string
	sent    time.Time // when the latency clock started
	latency time.Duration
	lag     time.Duration
	bytes   int
	events  int
	results []*surf.Result // one per query; topk results included
	// version and rows are an append's acknowledged data version and
	// row count.
	version uint64
	rows    int
}

// verified reports whether the server verified the request's regions
// against the data.
func (o *outcome) verified() bool {
	for _, r := range o.results {
		for _, g := range r.Regions {
			if g.Verified {
				return true
			}
		}
	}
	return false
}

// do sends r and reads its whole response. The latency runs from
// since (the send time for closed loops, the due time for open loops)
// to the last byte.
func (c *client) do(ctx context.Context, r *request, since time.Time) outcome {
	o := outcome{req: r, sent: since}
	var path string
	var body any
	switch r.kind {
	case kindFind:
		path, body = "/v1/find", r.query
	case kindTopK:
		path, body = "/v1/topk", r.topk
	case kindStream:
		path, body = "/v1/stream", map[string]any{"q": r.query}
	case kindFindMany:
		path, body = "/v1/findmany", map[string]any{"queries": r.many}
	case kindAppend:
		path, body = "/v1/datasets/"+datasetName+"/append", map[string]any{"rows": r.rows}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		o.err = err.Error()
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		o.err = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err.Error()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(since)
	o.bytes = len(data)
	if err != nil {
		o.err = err.Error()
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, data)
		return o
	}
	if err := o.decode(data); err != nil {
		o.err = fmt.Sprintf("%s: %v", r.kind, err)
		return o
	}
	o.ok = true
	return o
}

// decode parses a 200 response body into o.
func (o *outcome) decode(data []byte) error {
	switch o.req.kind {
	case kindFind, kindTopK:
		var res surf.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return err
		}
		o.results = []*surf.Result{&res}
	case kindStream:
		res, events, err := parseSSE(data)
		if err != nil {
			return err
		}
		o.results, o.events = []*surf.Result{res}, events
	case kindFindMany:
		var resp struct {
			Results []struct {
				Index  int          `json:"index"`
				Result *surf.Result `json:"result"`
				Error  string       `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(o.req.many) {
			return fmt.Errorf("%d results for %d queries", len(resp.Results), len(o.req.many))
		}
		o.results = make([]*surf.Result, len(o.req.many))
		for _, r := range resp.Results {
			if r.Error != "" || r.Result == nil || r.Index < 0 || r.Index >= len(o.results) || o.results[r.Index] != nil {
				return fmt.Errorf("query %d: bad result (%s)", r.Index, r.Error)
			}
			o.results[r.Index] = r.Result
		}
	case kindAppend:
		var resp struct {
			DataVersion uint64 `json:"data_version"`
			Rows        int    `json:"rows"`
			Appended    int    `json:"appended"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.Appended != len(o.req.rows) {
			return fmt.Errorf("appended %d of %d rows", resp.Appended, len(o.req.rows))
		}
		o.version, o.rows = resp.DataVersion, resp.Rows
	}
	return nil
}

// parseSSE reads an event stream to its done event, counting events.
func parseSSE(data []byte) (*surf.Result, int, error) {
	events := 0
	var res *surf.Result
	for _, block := range strings.Split(string(data), "\n\n") {
		if strings.HasPrefix(block, ":") {
			return nil, events, fmt.Errorf("stream failed: %.200s", block)
		}
		var name, payload string
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				name = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				payload = v
			}
		}
		if name == "" {
			continue
		}
		events++
		if name != "done" {
			continue
		}
		ev, err := surf.UnmarshalEvent([]byte(payload))
		if err != nil {
			return nil, events, err
		}
		done, ok := ev.(surf.EventDone)
		if !ok || done.Result == nil {
			return nil, events, errors.New("done event without a result")
		}
		res = done.Result
	}
	if res == nil {
		return nil, events, errors.New("stream ended without a done event")
	}
	return res, events, nil
}

// loadResult is one measured window of HTTP load.
type loadResult struct {
	outcomes []outcome
	window   time.Duration
}

// runLoad drives the workload's traffic against f for the window and
// returns every outcome of the measured window (warm-up requests are
// sent first and left out).
func runLoad(ctx context.Context, w *workload, g *gen, f *fixture, window time.Duration) (*loadResult, error) {
	switch w.name {
	case "mine-3d":
		return runMine(ctx, g, f, window), nil
	case "interactive-2d":
		return runInteractive(ctx, g, f, window), nil
	case "ingest-kde":
		return runIngest(ctx, g, f, window), nil
	}
	return nil, fmt.Errorf("no load for workload %q", w.name)
}

// closedLoop runs next(i) back to back on one client until the
// deadline, index 0 being an unmeasured warm-up request; at least one
// request is measured even when the warm-up outlasts the window. A
// request's lag is the harness's own gap between the previous
// response and its send.
func closedLoop(ctx context.Context, c *client, deadline time.Time, next func(i int) request) []outcome {
	warm := next(0)
	c.do(ctx, &warm, time.Now())
	var out []outcome
	prev := time.Now()
	for i := 1; i == 1 || time.Now().Before(deadline); i++ {
		r := next(i)
		sent := time.Now()
		o := c.do(ctx, &r, sent)
		o.lag = sent.Sub(prev)
		prev = time.Now()
		out = append(out, o)
	}
	return out
}

// runMine is mine-3d: a closed loop of mineClients clients.
func runMine(ctx context.Context, g *gen, f *fixture, window time.Duration) *loadResult {
	per := make([][]outcome, mineClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(f.url)
			defer cl.close()
			per[c] = closedLoop(ctx, cl, deadline, func(i int) request { return g.mineQuery(c, i) })
		}(c)
	}
	wg.Wait()
	res := &loadResult{window: time.Since(start)}
	for _, o := range per {
		res.outcomes = append(res.outcomes, o...)
	}
	return res
}

// openLoop sends reqs on their schedule over conns connections. The
// dispatcher never blocks, so a request that falls due while every
// connection is busy waits in the queue and its latency counts from
// its due time; lag records how late the dispatcher itself ran.
func openLoop(ctx context.Context, url string, reqs []request, conns int, start time.Time) []outcome {
	out := make([]outcome, len(reqs))
	lag := make([]time.Duration, len(reqs))
	// Buffered to the whole schedule so dispatch never waits on a
	// busy connection.
	ch := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			for i := range ch {
				out[i] = cl.do(ctx, &reqs[i], start.Add(reqs[i].due))
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = time.Since(due)
		ch <- i
	}
	close(ch)
	wg.Wait()
	for i := range out {
		out[i].lag = lag[i]
	}
	return out
}

// runInteractive is interactive-2d: the seeded open-loop schedule on
// two connections, after a short sequential warm-up.
func runInteractive(ctx context.Context, g *gen, f *fixture, window time.Duration) *loadResult {
	cl := newClient(f.url)
	for i := 0; i < 6; i++ {
		r := request{kind: kindFind, query: surf.Query{Threshold: g.yr, Above: true,
			Glowworms: smallSwarm, Iterations: smallIters, Seed: g.querySeed(9, i)}}
		cl.do(ctx, &r, time.Now())
	}
	cl.close()
	reqs := g.interactive(window)
	start := time.Now()
	out := openLoop(ctx, f.url, reqs, 2, start)
	return &loadResult{outcomes: out, window: time.Since(start)}
}

// runIngest is ingest-kde: appends on one connection on their fixed
// schedule, KDE finds in a closed loop on the other.
func runIngest(ctx context.Context, g *gen, f *fixture, window time.Duration) *loadResult {
	var appends []request
	for i := 0; ; i++ {
		r, ok := g.appendBatch(i)
		if !ok || r.due >= window {
			break
		}
		appends = append(appends, r)
	}
	var queries, writes []outcome
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := newClient(f.url)
		defer cl.close()
		queries = closedLoop(ctx, cl, start.Add(window), g.kdeQuery)
	}()
	go func() {
		defer wg.Done()
		writes = openLoop(ctx, f.url, appends, 1, start)
	}()
	wg.Wait()
	return &loadResult{outcomes: append(queries, writes...), window: time.Since(start)}
}

// summary is the end-to-end view of one load window.
type summary struct {
	attempted, failed int
	queries           int
	latencies         []float64 // ms, successful queries
	sent              []time.Time
	appendLat         []float64 // ms, successful appends
	lags              []float64 // ms, open-loop dispatches
	sloMet            int
	compliance        []float64
	bytes, events     int
	verified, kde     int
	neighbourWork     float64
	regions           int
	thresholdResults  int
}

func summarize(w *workload, lr *loadResult) summary {
	var s summary
	for i := range lr.outcomes {
		o := &lr.outcomes[i]
		s.attempted++
		if !o.ok {
			s.failed++
			fmt.Fprintf(os.Stderr, "request failed: %s\n", o.err)
		}
		s.lags = append(s.lags, ms(o.lag))
		s.bytes += o.bytes
		s.events += o.events
		if o.req.kind == kindAppend {
			if o.ok {
				s.appendLat = append(s.appendLat, ms(o.latency))
			}
			continue
		}
		s.queries++
		if !o.ok {
			continue
		}
		s.latencies = append(s.latencies, ms(o.latency))
		s.sent = append(s.sent, o.sent)
		if ms(o.latency) <= w.sloMS {
			s.sloMet++
		}
		if o.verified() {
			s.verified++
		}
		if o.req.query.UseKDE {
			s.kde++
		}
		if o.req.kind == kindTopK {
			s.neighbourWork += neighbourWork(w.dims, o.req.topk.Glowworms, o.req.topk.Iterations)
			continue
		}
		for j, q := range o.req.queries() {
			s.neighbourWork += neighbourWork(w.dims, q.Glowworms, q.Iterations)
			res := o.results[j]
			s.thresholdResults++
			s.regions += len(res.Regions)
			if !math.IsNaN(res.ComplianceRate) {
				s.compliance = append(s.compliance, res.ComplianceRate)
			}
		}
	}
	return s
}

// windowed is the median, over consecutive windows of the run, of a
// latency statistic computed per window. Windows hold equal numbers of
// requests in send order, at least windowMin each and at most
// maxWindows of them, so a transient slowdown of the host in one part
// of the run does not set the run's figure while a slower program
// moves every window.
func (s *summary) windowed(stat func([]float64) float64) float64 {
	idx := make([]int, len(s.latencies))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.sent[idx[a]].Before(s.sent[idx[b]]) })
	k := min(max(len(idx)/windowMin, 1), maxWindows)
	var per []float64
	for w := 0; w < k; w++ {
		var lat []float64
		for _, i := range idx[w*len(idx)/k : (w+1)*len(idx)/k] {
			lat = append(lat, s.latencies[i])
		}
		per = append(per, stat(lat))
	}
	return quantile(per, 0.5)
}

// windowMin is the fewest requests a p95 is computed from; maxWindows
// caps the number of windows.
const (
	windowMin  = 200
	maxWindows = 6
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
