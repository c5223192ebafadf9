package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkDef is the repository's BENCHMARK.json.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the command's
// own workload and metric tables in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	def := loadBenchmarkDef(t)
	if len(def.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(def.Workloads), len(specs))
	}
	for i, w := range def.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, command %q/%q", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	if !reflect.DeepEqual(def.EndToEnd, driverEndToEnd()) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n command        %+v", def.EndToEnd, driverEndToEnd())
	}
	var layers []metricDef
	for _, m := range perLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(def.PerLayer, layers) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n command        %+v", def.PerLayer, layers)
	}
}

// TestSmoke runs every workload at tiny scale, plain and traced, and
// checks the result line names every BENCHMARK.json metric with its unit,
// that nothing failed, that the outcome digest repeats, and that the
// Chrome trace parses with spans sharing trace IDs.
func TestSmoke(t *testing.T) {
	def := loadBenchmarkDef(t)
	tiny := map[string]int{"quote-hot": 300, "quote-cold": 300, "jobs-wide": 2, "jobs-durable": 10}
	for _, s := range specs {
		s.Requests = tiny[s.Name]
		t.Run(s.Name, func(t *testing.T) {
			dir := t.TempDir()
			chrome := filepath.Join(dir, "trace.json")
			plain, err := runRep(s, 7, false, dir, "")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(s, 7, true, dir, chrome)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*repResult{plain, traced} {
				if r.Failed != 0 || r.Metrics["fail_frac"] != 0 {
					t.Errorf("traced=%t: %d failures: %v", r.Traced, r.Failed, r.Problems)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("outcome digest differs between runs: %s vs %s", plain.Digest, traced.Digest)
			}
			wr := aggregate(s, []*repResult{plain}, []*repResult{traced})
			checkLine(t, wr, false, def.EndToEnd)
			checkLine(t, wr, true, def.PerLayer)
			if d := wr.SelfSumMs - wr.ClientSumMs; d > 0.05*wr.ClientSumMs || d < -0.05*wr.ClientSumMs {
				t.Errorf("self times sum to %.4f ms per op, client latency is %.4f ms", wr.SelfSumMs, wr.ClientSumMs)
			}
			checkChrome(t, chrome)
		})
	}
}

// checkLine asserts the driver result line carries exactly the listed
// metrics, each with its unit.
func checkLine(t *testing.T, wr *workloadResult, traced bool, want []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := printDriverLine(&buf, wr, traced); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("result line %q: %v", buf.String(), err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result line %s", buf.String())
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("traced=%t: result line has %d metrics, BENCHMARK.json lists %d", traced, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("traced=%t: metric %s: got %+v (present %t), want unit %s", traced, m.Name, got, ok, m.Unit)
		}
	}
}

func checkChrome(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	perTrace := map[string]map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		id := e.Args["trace"]
		if perTrace[id] == nil {
			perTrace[id] = map[string]bool{}
		}
		perTrace[id][e.Name] = true
	}
	shared := 0
	for _, names := range perTrace {
		if names["client"] && names["api.handler"] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no trace ID has both a client and an api.handler span (%d traces)", len(perTrace))
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, s := range specs {
		a, b, c := s.generate(1), s.generate(1), s.generate(2)
		if len(a) != s.Requests {
			t.Fatalf("%s: %d requests, want %d", s.Name, len(a), s.Requests)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different requests", s.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same requests", s.Name)
		}
	}
	cold, _ := specByName("quote-cold")
	seen := map[string]bool{}
	for _, r := range cold.generate(3) {
		if seen[string(r.Body)] {
			t.Fatalf("quote-cold repeats body %s", r.Body)
		}
		seen[string(r.Body)] = true
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	ops, _ := metricByName("ops_per_s")
	lat, _ := metricByName("lat_p50_ms")
	fail, _ := metricByName("fail_frac")
	tight := func(v float64) stat { return stat{Median: v, Q1: v * 0.99, Q3: v * 1.01} }
	cases := []struct {
		m    metricDef
		a, b stat
		want string
	}{
		{ops, tight(100), tight(70), "worse"},
		{ops, tight(100), tight(140), "better"},
		{ops, tight(100), tight(95), "same"},
		{lat, tight(10), tight(14), "worse"},
		{lat, tight(10), stat{Median: 10, Q1: 7, Q3: 13}, "unresolved"},
		{fail, stat{}, stat{Median: 0.01}, "worse"},
		{fail, stat{}, stat{}, "same"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentHardware(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		r := result{Provenance: provenance{GOMAXPROCS: procs, CPUModel: "x"}, Seed: 1, ConfigHash: configHash(),
			Workloads: map[string]*workloadResult{"quote-hot": {Metrics: map[string]stat{"ops_per_s": {Median: 1, Q1: 1, Q3: 1}}}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 8)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errOut); code != 0 {
		t.Fatalf("same hardware: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := compareMain([]string{a, c}, &out, &errOut); code != 2 || !bytes.Contains(errOut.Bytes(), []byte("GOMAXPROCS")) {
		t.Fatalf("different GOMAXPROCS: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
