package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	surf "surf"
	"surf/registry"
	"surf/server"
)

// testServer starts an in-process surf server over a small clustered
// dataset: a one-entry registry, the default dataset, loading a
// 20-tree surrogate artifact.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 3))
	n := 1500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if i%3 == 0 {
			xs[i] = 0.7 + rng.NormFloat64()*0.05
			ys[i] = 0.3 + rng.NormFloat64()*0.05
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	d, err := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := surf.Open(d, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, surf.TrainOptions{Trees: 20}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := registry.Spec{
		Data:          filepath.Join(dir, "test.csv"),
		FilterColumns: []string{"x", "y"},
		Statistic:     "count",
		Artifact:      filepath.Join(dir, "test.surf"),
	}
	writeFile(t, spec.Data, d.WriteCSV)
	writeFile(t, spec.Artifact, eng.SaveSurrogate)
	reg := registry.New(0)
	if _, err := reg.Register("test", spec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewRegistry(reg, "test").Handler())
	t.Cleanup(ts.Close)
	return ts
}

// writeFile creates path and fills it with write.
func writeFile(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		t.Fatal(err)
	}
}

// testOptions is a fast harness configuration against ts.
func testOptions(ts *httptest.Server, out string) options {
	return options{
		addr:        ts.URL,
		concurrency: 2,
		duration:    400 * time.Millisecond,
		warmup:      100 * time.Millisecond,
		mix:         "find=3,stream=1,findmany=1",
		seed:        1,
		seeds:       4,
		threshold:   30,
		glowworms:   20,
		iterations:  10,
		out:         out,
	}
}

func TestRunWritesReport(t *testing.T) {
	ts := testServer(t)
	out := t.TempDir()
	var buf bytes.Buffer
	rep, err := run(context.Background(), testOptions(ts, out), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed:\n%s", rep.Errors, rep.Requests, buf.String())
	}
	if rep.QPS <= 0 || rep.Latency.P99 <= 0 || rep.Latency.P50 > rep.Latency.P99 {
		t.Fatalf("implausible summary: %+v", rep.Latency)
	}
	for _, route := range routeNames {
		rr, ok := rep.Routes[route]
		if !ok || rr.Requests == 0 {
			t.Errorf("route %s missing from report: %+v", route, rep.Routes)
		}
	}
	if !strings.Contains(buf.String(), "QPS") {
		t.Errorf("summary table missing QPS line:\n%s", buf.String())
	}

	raw, err := os.ReadFile(filepath.Join(out, "BENCH_serving.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Report
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.QPS != rep.QPS || onDisk.Requests != rep.Requests {
		t.Fatalf("persisted report disagrees: disk %+v, mem %+v", onDisk, rep)
	}
}

func TestGates(t *testing.T) {
	rep := &Report{QPS: 100}
	rep.Latency.P99 = 50 // ms
	cases := []struct {
		name string
		o    options
		fail bool
	}{
		{"no gates", options{}, false},
		{"qps passes", options{minQPS: 50}, false},
		{"qps fails", options{minQPS: 200}, true},
		{"p99 passes", options{maxP99: 100 * time.Millisecond}, false},
		{"p99 fails", options{maxP99: 10 * time.Millisecond}, true},
	}
	for _, c := range cases {
		err := rep.checkGates(c.o)
		if (err != nil) != c.fail {
			t.Errorf("%s: err=%v, want fail=%v", c.name, err, c.fail)
		}
	}
}

// TestGateFailureEndToEnd proves a run against a live server still
// produces the report before the gate rejects it.
func TestGateFailureEndToEnd(t *testing.T) {
	ts := testServer(t)
	out := t.TempDir()
	o := testOptions(ts, out)
	o.minQPS = 1e9 // unreachable floor
	rep, err := run(context.Background(), o, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.checkGates(o); err == nil {
		t.Fatal("gate should have failed")
	}
	if _, err := os.Stat(filepath.Join(out, "BENCH_serving.json")); err != nil {
		t.Fatalf("report not persisted on gate failure: %v", err)
	}
}

func TestParseMix(t *testing.T) {
	good, err := parseMix("find=6, stream=1,findmany=3")
	if err != nil {
		t.Fatal(err)
	}
	if good["find"] != 6 || good["stream"] != 1 || good["findmany"] != 3 {
		t.Fatalf("weights %v", good)
	}
	for _, bad := range []string{"", "find", "find=x", "find=-1", "topk=1", "find=0,stream=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestProbeReadyFailsFast(t *testing.T) {
	o := options{
		addr:        "http://127.0.0.1:1", // nothing listens here
		concurrency: 1, duration: 50 * time.Millisecond,
		mix: "find=1", seeds: 1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := run(ctx, o, &bytes.Buffer{}); err == nil {
		t.Fatal("expected an error against a dead address")
	}
}
