// Command planload drives POST /api/plan with a skewed repeated-request
// mix and reports throughput, latency quantiles, and cache outcomes —
// the client's-eye view of the plan service.
//
// Usage:
//
//	planload                          # in-process master, 64 clients, 5s
//	planload -server 127.0.0.1:8080   # against a running master
//	planload -concurrency 128 -duration 10s -seed 7
//	planload -nocache                 # in-process only: bypass the cache
//	planload -json out.json           # machine-readable summary
//
// The mix is deliberately skewed (a few hot planning questions, a long
// cool tail) so cache hits, coalescing, and misses all occur, like a
// tenant population re-quoting the same workloads against a live
// catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/plan/service"
)

func main() {
	var (
		server      = flag.String("server", "", "master address (empty runs an in-process master)")
		concurrency = flag.Int("concurrency", 64, "concurrent clients")
		duration    = flag.Duration("duration", 5*time.Second, "how long to drive load")
		seed        = flag.Int64("seed", 1, "mix-selection seed")
		nocache     = flag.Bool("nocache", false, "bypass the plan cache (in-process only): every request pays a full search")
		jsonOut     = flag.String("json", "", "also write the summary as JSON to this file")
	)
	flag.Parse()
	if err := run(*server, *concurrency, *duration, *seed, *nocache, *jsonOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "planload:", err)
		os.Exit(1)
	}
}

// question is one entry of the skewed mix: a planning payload and its
// relative weight.
type question struct {
	body   string
	weight int
}

func mix() []question {
	payload := func(w string, deadline float64, loss float64) string {
		b, _ := json.Marshal(map[string]any{
			"workload": w, "deadline_sec": deadline, "loss_target": loss,
		})
		return string(b)
	}
	// Two hot questions, a warm pair, and a cool tail of four: roughly
	// 60/25/15 of the traffic.
	return []question{
		{payload("cifar10 DNN", 5400, 0.8), 30},
		{payload("mnist DNN", 1800, 0.2), 30},
		{payload("cifar10 DNN", 7200, 0.8), 13},
		{payload("mnist DNN", 3600, 0.2), 12},
		{payload("cifar10 DNN", 9000, 0.8), 4},
		{payload("cifar10 DNN", 10800, 0.8), 4},
		{payload("mnist DNN", 5400, 0.2), 4},
		{payload("mnist DNN", 7200, 0.2), 3},
	}
}

// Summary is the machine-readable result (-json).
type Summary struct {
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	Plans       int     `json:"plans"`
	Errors      int     `json:"errors"`
	PlansPerSec float64 `json:"plans_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
	Coalesced   int     `json:"coalesced"`
	Throttled   int     `json:"throttled"`
	HitRatio    float64 `json:"hit_ratio"`
}

func run(server string, concurrency int, duration time.Duration, seed int64, nocache bool, jsonOut string, out *os.File) error {
	if concurrency < 1 {
		return fmt.Errorf("concurrency must be at least 1")
	}
	base := "http://" + server
	if server == "" {
		srv, err := inprocess(nocache)
		if err != nil {
			return err
		}
		defer srv.Close()
		base = srv.URL
	} else if nocache {
		return fmt.Errorf("-nocache only applies to the in-process master")
	}

	qs := mix()
	var weighted []string
	for _, q := range qs {
		for i := 0; i < q.weight; i++ {
			weighted = append(weighted, q.body)
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
	}}
	type shard struct {
		latencies []time.Duration
		outcomes  map[string]int
		errors    int
		throttled int
	}
	shards := make([]shard, concurrency)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			sh := &shards[i]
			sh.outcomes = map[string]int{}
			for time.Now().Before(deadline) {
				body := weighted[rng.Intn(len(weighted))]
				t0 := time.Now()
				resp, err := client.Post(base+"/api/plan", "application/json", strings.NewReader(body))
				if err != nil {
					sh.errors++
					continue
				}
				// Drain before closing so the keep-alive connection is
				// reused; an unread body forces a fresh TCP connection
				// per request and the latencies would include connects.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					sh.latencies = append(sh.latencies, time.Since(t0))
					sh.outcomes[resp.Header.Get("X-Cache")]++
				case resp.StatusCode == http.StatusTooManyRequests:
					sh.throttled++
				default:
					sh.errors++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	outcomes := map[string]int{}
	errors, throttled := 0, 0
	for i := range shards {
		all = append(all, shards[i].latencies...)
		for k, v := range shards[i].outcomes {
			outcomes[k] += v
		}
		errors += shards[i].errors
		throttled += shards[i].throttled
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	s := Summary{
		Concurrency: concurrency,
		DurationSec: elapsed.Seconds(),
		Plans:       len(all),
		Errors:      errors,
		Throttled:   throttled,
		Hits:        outcomes["hit"],
		Misses:      outcomes["miss"],
		Coalesced:   outcomes["coalesced"],
	}
	if elapsed > 0 {
		s.PlansPerSec = float64(len(all)) / elapsed.Seconds()
	}
	if len(all) > 0 {
		s.P50Ms = quantile(all, 0.50)
		s.P99Ms = quantile(all, 0.99)
		s.HitRatio = float64(s.Hits) / float64(len(all))
	}

	fmt.Fprintf(out, "planload: %d clients for %.1fs against %s\n", concurrency, elapsed.Seconds(), base)
	fmt.Fprintf(out, "  plans       %d (%.0f/s), %d throttled, %d errors\n", s.Plans, s.PlansPerSec, s.Throttled, s.Errors)
	fmt.Fprintf(out, "  latency     p50 %.3fms  p99 %.3fms\n", s.P50Ms, s.P99Ms)
	fmt.Fprintf(out, "  cache       %d hit / %d miss / %d coalesced (%.1f%% hits)\n",
		s.Hits, s.Misses, s.Coalesced, 100*s.HitRatio)
	if jsonOut != "" {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if s.Plans == 0 {
		return fmt.Errorf("no successful plans (errors=%d, throttled=%d)", errors, throttled)
	}
	return nil
}

// quantile reads the q-th quantile (0..1) in milliseconds from sorted
// latencies.
func quantile(sorted []time.Duration, q float64) float64 {
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// inprocess assembles a full master (simulated provider, controller,
// API) behind an httptest listener, optionally with the plan cache
// bypassed so every request pays a full Theorem 4.1 search.
func inprocess(nocache bool) (*httptest.Server, error) {
	master, err := cluster.NewMaster()
	if err != nil {
		return nil, err
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	provider.SetJournal(master.Journal())
	master.SetJournal(master.Journal(), provider.Now)
	controller := cluster.NewController(master, provider, nil, "")
	var opts []cluster.APIOption
	if nocache {
		opts = append(opts, cluster.WithPlanService(service.New(service.Config{
			Catalog:       provider.Catalog(),
			CacheCapacity: -1,
		})))
	}
	api := cluster.NewAPI(master, controller, opts...)
	return httptest.NewServer(api.Handler()), nil
}
