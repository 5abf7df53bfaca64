// Serve: the HTTP query API end to end — a server with a trained
// surrogate and a plain HTTP client talking to it.
//
//  1. Write a clustered dataset to a temporary CSV, register it as
//     the one entry of a model registry (trained at load time) and
//     start the HTTP server in-process on a loopback port (in a real
//     deployment this half lives in surf-serve; everything the client
//     half does works unchanged against it).
//  2. GET /healthz — liveness plus each dataset's lifecycle state
//     (the entry loads, and trains, lazily on first use).
//  3. POST /v1/find — a threshold query as JSON, a ranked Result
//     back.
//  4. GET /v1/stream — the same query as Server-Sent Events: swarm
//     telemetry while it runs, incumbent regions as they stabilize,
//     and the final result, decoded with surf.UnmarshalEvent.
//
// Run with: go run ./examples/serve
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	surf "surf"
	"surf/registry"
	"surf/server"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// 1. Server half: dataset CSV, one-entry registry, HTTP listener.
	rng := rand.New(rand.NewPCG(11, 4))
	const n = 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%4 == 0 { // one dense cluster at (0.7, 0.3)
			xs[i] = 0.7 + rng.NormFloat64()*0.04
			ys[i] = 0.3 + rng.NormFloat64()*0.04
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	ds, err := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "surf-serve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "clusters.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	reg := registry.New(0)
	if _, err := reg.Register("clusters", registry.Spec{
		Data:          csvPath,
		FilterColumns: []string{"x", "y"},
		Statistic:     "count",
		Train:         3000,
		TrainSeed:     1,
		UseGridIndex:  true,
	}); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- server.NewRegistry(reg, "clusters").Serve(ctx, l) }()
	base := "http://" + l.Addr().String()
	fmt.Println("server listening on", base)

	// 2. Liveness and per-dataset status. The entry loads (and trains)
	// lazily on first use, so the find below pays for the training.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Datasets []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("healthz: %s, dataset %q %s\n\n",
		health.Status, health.Datasets[0].Name, health.Datasets[0].State)

	// 3. One blocking query over HTTP. MinSideFrac keeps the size
	// regularizer from shrinking regions below the scale the
	// surrogate was trained on.
	query := surf.Query{Threshold: 250, Above: true, MaxRegions: 3, Seed: 7, MinSideFrac: 0.05}
	body, _ := json.Marshal(query)
	resp, err = http.Post(base+"/v1/find", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("find: HTTP %d", resp.StatusCode)
	}
	var res surf.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("POST /v1/find: %d regions, %.0f%% verified, %.2fs\n",
		len(res.Regions), res.ComplianceRate*100, res.ElapsedSeconds)
	for i, r := range res.Regions {
		fmt.Printf("  region %d: x in [%.3f, %.3f], y in [%.3f, %.3f], estimate %.0f\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.Estimate)
	}

	// 4. The same query as a progressive SSE stream.
	fmt.Println("\nGET /v1/stream:")
	stream, err := http.Get(base + "/v1/stream?q=" + url.QueryEscape(string(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		ev, err := surf.UnmarshalEvent([]byte(strings.TrimPrefix(line, "data: ")))
		if err != nil {
			log.Fatal(err)
		}
		switch ev := ev.(type) {
		case surf.EventIteration:
			if (ev.Iteration+1)%25 == 0 {
				fmt.Printf("  iter %d: E[J]=%.4g, %.0f%% particles valid\n",
					ev.Iteration, ev.MeanFitness, ev.ValidParticleFraction*100)
			}
		case surf.EventRegion:
			fmt.Printf("  incumbent at iter %d: estimate %.0f\n", ev.Iteration, ev.Region.Estimate)
		case surf.EventDone:
			fmt.Printf("  done: %d regions\n", len(ev.Result.Regions))
		}
	}

	// Graceful shutdown: cancel the serve context and wait.
	cancel()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver shut down cleanly")
}
