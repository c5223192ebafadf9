// Command cynthiabench is the repository's end-to-end benchmark. It
// assembles the control plane in-process exactly as cmd/master does,
// serves it on a loopback listener, drives it over HTTP with a closed loop
// of seeded requests, checks every answer against an oracle, and reports
// end-to-end metrics plus, with -trace 1, a per-layer breakdown.
//
// Usage:
//
//	cynthiabench [-workload all|quote-hot|quote-cold|jobs-wide|jobs-durable]
//	             [-seed 1] [-reps 3 | -seconds 25] [-trace 0|1] [-json out.json]
//	cynthiabench compare a.json b.json
//
// Every repetition runs in a fresh process (the command re-executes
// itself), so heap, obs.Default() series and profile caches never carry
// over. Reports give the median and quartiles across repetitions. With
// -seconds the command runs repetitions until the next one would overrun
// the budget; with -trace 1 it interleaves plain and traced repetitions.
// When one workload is selected, the last line of standard output is one
// JSON object: correct, attempted, failed, and the metrics.
//
// Everything it writes — state dirs, traces — goes under .bench_build in
// the working directory, the checkout root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		reps     = flag.Int("reps", 3, "repetitions per workload (ignored when -seconds is set)")
		seconds  = flag.Int("seconds", 0, "run repetitions for about this many seconds per workload instead of -reps")
		trace    = flag.Int("trace", 0, "1 also runs traced repetitions and reports per-layer metrics")
		jsonOut  = flag.String("json", "", "also write the full result as JSON to this file")
		child    = flag.Bool("child", false, "internal: run one repetition and print it as JSON")
		traced   = flag.Bool("traced", false, "internal: the child repetition is traced")
		chrome   = flag.String("chrome", "", "internal: the child writes its Chrome trace here")
	)
	flag.Parse()
	if *child {
		if err := childMain(*workload, *seed, *traced, *chrome); err != nil {
			fmt.Fprintln(os.Stderr, "cynthiabench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "cynthiabench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, reps: *reps, seconds: *seconds, trace: *trace == 1}
	ok, err := run(*workload, opts, *jsonOut, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cynthiabench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// benchDir holds everything the benchmark writes; .gitignore lists it.
const benchDir = ".bench_build"

var traceDir = filepath.Join(benchDir, "trace")

func childMain(workload string, seed int64, traced bool, chrome string) error {
	s, err := specByName(workload)
	if err != nil {
		return err
	}
	res, err := runRep(s, seed, traced, benchDir, chrome)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

type runOpts struct {
	seed          int64
	reps, seconds int
	trace         bool
}

// stat summarizes one metric across repetitions.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) stat {
	q1, med, q3 := quartiles(values)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, Values: values}
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// workloadResult aggregates a workload's repetitions.
type workloadResult struct {
	Reps       int             `json:"reps"`
	TracedReps int             `json:"traced_reps"`
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Problems   []string        `json:"problems,omitempty"`
	Digest     string          `json:"digest"`
	Metrics    map[string]stat `json:"metrics"`
	// Layers is the per-layer self-time table of the traced repetitions
	// (median per layer); SelfSumMs and ClientSumMs are the medians of the
	// per-op sums of all self times and of client latency.
	Layers      []layerRow `json:"layers,omitempty"`
	SelfSumMs   float64    `json:"self_sum_ms,omitempty"`
	ClientSumMs float64    `json:"client_sum_ms,omitempty"`
}

// result is what -json writes and compare reads.
type result struct {
	Provenance provenance                 `json:"provenance"`
	Seed       int64                      `json:"seed"`
	ConfigHash string                     `json:"config_hash"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func run(workload string, o runOpts, jsonOut string, out io.Writer) (bool, error) {
	var todo []spec
	if workload == "all" {
		todo = specs
	} else {
		s, err := specByName(workload)
		if err != nil {
			return false, err
		}
		todo = []spec{s}
	}
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	res := result{Provenance: currentProvenance(benchDir), Seed: o.seed, ConfigHash: configHash(), Workloads: map[string]*workloadResult{}}
	allOK := true
	for _, s := range todo {
		wr, err := measure(self, s, o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", s.Name, err)
		}
		res.Workloads[s.Name] = wr
		allOK = allOK && wr.Correct
		printWorkload(out, s, wr)
		if o.trace {
			if err := writeLayerTable(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.layers.txt", s.Name, o.seed)), s, wr); err != nil {
				return false, err
			}
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if len(todo) == 1 {
		if err := printDriverLine(out, res.Workloads[todo[0].Name], o.trace); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// measure runs the workload's repetitions, each in a fresh child process,
// and aggregates them.
func measure(self string, s spec, o runOpts) (*workloadResult, error) {
	var plain, traced []*repResult
	begin := time.Now()
	var longest time.Duration
	for {
		doTrace := o.trace && len(traced) < len(plain)
		if o.seconds > 0 {
			done := len(plain) > 0 && (!o.trace || len(traced) > 0)
			if done && time.Since(begin)+longest > time.Duration(o.seconds)*time.Second {
				break
			}
		} else if len(plain) >= o.reps && (!o.trace || len(traced) >= o.reps) {
			break
		}
		chrome := ""
		if doTrace && len(traced) == 0 {
			chrome = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", s.Name, o.seed))
		}
		t0 := time.Now()
		r, err := runChild(self, s.Name, o, doTrace, chrome)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t0))
		if doTrace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return aggregate(s, plain, traced), nil
}

func runChild(self, workload string, o runOpts, traced bool, chrome string) (*repResult, error) {
	cmd := exec.Command(self, "-child", "-workload", workload, fmt.Sprint("-seed=", o.seed),
		fmt.Sprint("-traced=", traced), "-chrome", chrome)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition process: %w", err)
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("decoding repetition result: %w", err)
	}
	return &r, nil
}

func aggregate(s spec, plain, traced []*repResult) *workloadResult {
	wr := &workloadResult{Reps: len(plain), TracedReps: len(traced), Correct: true, Metrics: map[string]stat{}}
	all := append(append([]*repResult(nil), plain...), traced...)
	for _, r := range all {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Problems = append(wr.Problems, r.Problems...)
		if wr.Digest == "" {
			wr.Digest = r.Digest
		} else if r.Digest != wr.Digest {
			wr.Correct = false
			wr.Problems = append(wr.Problems, fmt.Sprintf("outcome digest differs across repetitions: %s vs %s", wr.Digest, r.Digest))
		}
	}
	wr.Correct = wr.Correct && wr.Failed == 0
	collect := func(reps []*repResult, m metricDef) {
		var vs []float64
		for _, r := range reps {
			if v, ok := r.Metrics[m.Name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			wr.Metrics[m.Name] = summarize(m.Unit, vs)
		}
	}
	for _, m := range endToEnd {
		if m.Only == "" || m.Only == s.Name {
			collect(plain, m)
		}
	}
	for _, m := range perLayer {
		switch {
		case m.Name == "trace.overhead_frac":
			if len(traced) > 0 {
				var t []float64
				for _, r := range traced {
					t = append(t, r.Metrics["ops_per_s"])
				}
				_, tm, _ := quartiles(t)
				wr.Metrics[m.Name] = summarize(m.Unit, []float64{1 - tm/wr.Metrics["ops_per_s"].Median})
			}
		case plainLayerMetrics[m.Name] || len(traced) == 0:
			collect(plain, m)
		default:
			collect(traced, m)
		}
	}
	if len(traced) > 0 {
		perLayerMs := map[string][]float64{}
		spans := map[string]int{}
		var self, client []float64
		for _, r := range traced {
			for _, l := range r.Layers {
				perLayerMs[l.Layer] = append(perLayerMs[l.Layer], l.SelfMsOp)
				spans[l.Layer] += l.SpanCount
			}
			self = append(self, r.SelfSumMs)
			client = append(client, r.ClientSumMs)
		}
		_, wr.SelfSumMs, _ = quartiles(self)
		_, wr.ClientSumMs, _ = quartiles(client)
		for layer, vs := range perLayerMs {
			_, med, _ := quartiles(vs)
			wr.Layers = append(wr.Layers, layerRow{Layer: layer, SelfMsOp: med, Share: ratio(med, wr.ClientSumMs), SpanCount: spans[layer] / len(traced)})
		}
		sort.Slice(wr.Layers, func(i, j int) bool { return wr.Layers[i].SelfMsOp > wr.Layers[j].SelfMsOp })
	}
	return wr
}

func printWorkload(w io.Writer, s spec, wr *workloadResult) {
	fmt.Fprintf(w, "%s: %d clients, %d requests, %d plain + %d traced repetitions, digest %s, correct %t\n",
		s.Name, s.Clients, s.Requests, wr.Reps, wr.TracedReps, wr.Digest, wr.Correct)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	names := make([]string, 0, len(endToEnd)+len(perLayer))
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := wr.Metrics[m.Name]; ok {
			names = append(names, m.Name)
		}
	}
	for _, name := range names {
		st := wr.Metrics[name]
		label := name
		if name == "lat_tail_ms" {
			label = fmt.Sprintf("lat_tail_ms (p%g, %d samples beyond)", s.TailPct, int(float64(s.Requests)*(100-s.TailPct)/100))
		}
		fmt.Fprintf(w, "  %-48s %14.6g %-8s [%.6g, %.6g]\n", label, st.Median, st.Unit, st.Q1, st.Q3)
	}
	if len(wr.Layers) > 0 {
		fmt.Fprintf(w, "  where a request's time goes (self time per op, traced):\n")
		for _, l := range wr.Layers {
			fmt.Fprintf(w, "    %-34s %10.4f ms %6.1f%%\n", l.Layer, l.SelfMsOp, 100*l.Share)
		}
		fmt.Fprintf(w, "    %-34s %10.4f ms (client latency %.4f ms)\n", "sum of self times", wr.SelfSumMs, wr.ClientSumMs)
	}
}

func writeLayerTable(path string, s spec, wr *workloadResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	printWorkload(&b, s, wr)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// printDriverLine prints the one-line result: the end-to-end metrics the
// benchmark definition lists, or with tracing its per-layer metrics.
func printDriverLine(w io.Writer, wr *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := driverEndToEnd()
	if traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		st, ok := wr.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{Value: st.Median, Unit: m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   wr.Correct,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
