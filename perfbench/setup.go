package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	surf "surf"
	"surf/registry"
	"surf/server"
)

// datasetName is the registry entry every fixture serves.
const datasetName = "bench"

// fixture is one set-up system: a registry over a freshly generated
// CSV, served by the HTTP server on a loopback listener.
type fixture struct {
	data  *dataset
	spec  registry.Spec
	reg   *registry.Registry
	srv   *server.Server
	url   string
	setup time.Duration
	stop  func() error
}

// setUp builds one fixture and times it end to end: data generation,
// CSV write, registry load (CSV read, workload labelling, surrogate
// training) and the server's /readyz turning ready.
func setUp(ctx context.Context, w *workload, seed uint64, dir string, idx int) (*fixture, error) {
	start := time.Now()
	data, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", w.name, idx))
	if err := writeCSV(path, data.names, data.base); err != nil {
		return nil, err
	}
	spec := registry.Spec{
		Data: path, FilterColumns: data.names, Statistic: "count",
		Train: w.train, TrainSeed: seed + 1, UseGridIndex: true,
	}
	if w.drift {
		spec.DriftReservoir, spec.DriftThreshold = driftReservoir, 1e9
	}
	reg := registry.New(0)
	if _, err := reg.Register(datasetName, spec); err != nil {
		return nil, err
	}
	srv := server.NewRegistry(reg, datasetName)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln) }()
	f := &fixture{data: data, spec: spec, reg: reg, srv: srv, url: "http://" + ln.Addr().String()}
	var once sync.Once
	var stopErr error
	f.stop = func() error {
		once.Do(func() {
			cancel()
			stopErr = <-done
		})
		return stopErr
	}
	if err := waitReady(ctx, f.url); err != nil {
		_ = f.stop()
		return nil, err
	}
	f.setup = time.Since(start)
	return f, nil
}

// driftReservoir sizes ingest-kde's drift replay set (the registry
// default, spelled out because the traced run rebuilds it).
const driftReservoir = 64

// waitReady polls /readyz until it answers 200. Each probe also kicks
// the lazy load, so the first probe starts training.
func waitReady(ctx context.Context, url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server did not turn ready within 60s")
}

// writeCSV writes rows under a header with the dataset's own CSV
// writer.
func writeCSV(path string, names []string, rows [][]float64) error {
	ds, err := surfDataset(names, rows)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := ds.WriteCSV(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// surfDataset builds the in-memory dataset of the given rows.
func surfDataset(names []string, rows [][]float64) (*surf.Dataset, error) {
	cols := make([][]float64, len(names))
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i, r := range rows {
			cols[j][i] = r[j]
		}
	}
	return surf.NewDataset(names, cols)
}

// engineConfig is the engine configuration a fixture's spec implies.
func engineConfig(names []string) surf.Config {
	return surf.Config{FilterColumns: names, Statistic: surf.Count, UseGridIndex: true}
}
