package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cynthia/internal/flow
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAllocate64Flows/incremental         	  448148	      2503 ns/op	       0 B/op	       0 allocs/op
BenchmarkAllocate64Flows/reference           	   77682	     15186 ns/op	    7144 B/op	     140 allocs/op
BenchmarkEngineThroughput/incremental-8      	    5331	    238421 ns/op	  104593 B/op	    2012 allocs/op
BenchmarkEngineThroughput/reference-8        	    2034	    525839 ns/op	  144578 B/op	    5010 allocs/op
PASS
ok  	cynthia/internal/flow	10.271s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Goos != "linux" || f.Goarch != "amd64" || !strings.Contains(f.CPU, "Xeon") {
		t.Errorf("header = %q/%q/%q", f.Goos, f.Goarch, f.CPU)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(f.Benchmarks))
	}
	b := f.Benchmarks[0]
	if b.Name != "BenchmarkAllocate64Flows/incremental" || b.Iters != 448148 ||
		b.NsPerOp != 2503 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("first benchmark = %+v", b)
	}
	if b.Pkg != "cynthia/internal/flow" {
		t.Errorf("pkg = %q", b.Pkg)
	}
	// The -8 procs suffix strips into Procs so baselines from machines
	// with different core counts compare under the same name.
	p := f.Benchmarks[2]
	if p.Name != "BenchmarkEngineThroughput/incremental" || p.Procs != 8 {
		t.Errorf("procs-suffixed benchmark = %+v", p)
	}
}

// TestParseBenchMergesRepeatedSamples: with -count=N go test prints the
// same benchmark N times; parse must collapse them to the per-metric min.
func TestParseBenchMergesRepeatedSamples(t *testing.T) {
	const repeated = `pkg: cynthia/internal/flow
BenchmarkHot/incremental-8   1000   300 ns/op   16 B/op   2 allocs/op
BenchmarkHot/incremental-8   2000   250 ns/op   16 B/op   3 allocs/op
BenchmarkHot/incremental-8   1500   280 ns/op    8 B/op   2 allocs/op
PASS
`
	f, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks after merge, want 1", len(f.Benchmarks))
	}
	b := f.Benchmarks[0]
	if b.NsPerOp != 250 || b.Iters != 2000 || b.BytesPerOp != 8 || b.AllocsPerOp != 2 {
		t.Errorf("merged benchmark = %+v, want min of each metric (250 ns, iters 2000, 8 B, 2 allocs)", b)
	}
	if f.Procs != 8 {
		t.Errorf("file procs = %d, want 8 from the -8 suffix", f.Procs)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Error("empty bench output accepted")
	}
}

func mkFile(ns map[string][2]float64) *File {
	f := &File{Version: 1}
	for name, v := range ns {
		f.Benchmarks = append(f.Benchmarks, Benchmark{Name: name, Iters: 1, NsPerOp: v[0], AllocsPerOp: v[1]})
	}
	return f
}

func TestCompareGates(t *testing.T) {
	baseline := mkFile(map[string][2]float64{
		"BenchmarkX/incremental": {100, 0},
		"BenchmarkX/reference":   {400, 140},
	})

	// Clean run: same ratio, allocs flat, speedup 4x.
	_, fails := compare(baseline, mkFile(map[string][2]float64{
		"BenchmarkX/incremental": {110, 0},
		"BenchmarkX/reference":   {440, 140},
	}), 10, 2)
	if len(fails) != 0 {
		t.Errorf("clean run failed gates: %v", fails)
	}

	// Allocation regression.
	_, fails = compare(baseline, mkFile(map[string][2]float64{
		"BenchmarkX/incremental": {100, 3},
		"BenchmarkX/reference":   {400, 140},
	}), 10, 2)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Errorf("alloc regression not caught: %v", fails)
	}

	// Ratio regression: incremental slowed 2x relative to reference even
	// though the machine is uniformly faster (raw ns below baseline).
	_, fails = compare(baseline, mkFile(map[string][2]float64{
		"BenchmarkX/incremental": {90, 0},
		"BenchmarkX/reference":   {180, 140},
	}), 10, 0)
	if len(fails) != 1 || !strings.Contains(fails[0], "relative to") {
		t.Errorf("ratio regression not caught: %v", fails)
	}

	// Speedup floor: reference only 1.5x slower.
	_, fails = compare(baseline, mkFile(map[string][2]float64{
		"BenchmarkX/incremental": {100, 0},
		"BenchmarkX/reference":   {150, 140},
	}), 1000, 2)
	if len(fails) != 1 || !strings.Contains(fails[0], "faster than") {
		t.Errorf("speedup floor not enforced: %v", fails)
	}

	// Raw ns gate for benchmarks without a reference sibling.
	soloBase := mkFile(map[string][2]float64{"BenchmarkY": {100, 0}})
	_, fails = compare(soloBase, mkFile(map[string][2]float64{"BenchmarkY": {150, 0}}), 10, 2)
	if len(fails) != 1 || !strings.Contains(fails[0], "regressed") {
		t.Errorf("raw ns regression not caught: %v", fails)
	}

	// New benchmarks (absent from the baseline) never fail the gates.
	_, fails = compare(soloBase, mkFile(map[string][2]float64{
		"BenchmarkY": {100, 0},
		"BenchmarkZ": {9999, 50},
	}), 10, 2)
	if len(fails) != 0 {
		t.Errorf("new benchmark tripped gates: %v", fails)
	}
}

// TestCompareHardwareGate: cross-run timing gates compare only runs from
// the same CPU at the same GOMAXPROCS. Across hardware the report says so
// loudly, while allocs/op and the within-run speedup floor still gate.
func TestCompareHardwareGate(t *testing.T) {
	mk := func(cpu string, procs int, incNs, refNs, incAllocs float64) *File {
		return &File{Version: 1, CPU: cpu, Procs: procs, Benchmarks: []Benchmark{
			{Name: "BenchmarkX/incremental", Iters: 1, NsPerOp: incNs, AllocsPerOp: incAllocs},
			{Name: "BenchmarkX/reference", Iters: 1, NsPerOp: refNs, AllocsPerOp: 140},
			{Name: "BenchmarkY", Iters: 1, NsPerOp: 100, ItersPerSec: 30000},
		}}
	}
	baseline := mk("Xeon @ 2.70GHz", 1, 100, 400, 0)
	slowY := func(f *File) *File {
		f.Benchmarks[2].NsPerOp, f.Benchmarks[2].ItersPerSec = 1000, 3000
		return f
	}

	// Enforce path: same hardware, so the ratio, raw ns and iters/s gates
	// all fire.
	report, fails := compare(baseline, slowY(mk("Xeon @ 2.70GHz", 1, 200, 400, 0)), 10, 0)
	if strings.Contains(report, "hardware differs") {
		t.Errorf("same hardware reported as different:\n%s", report)
	}
	if len(fails) != 3 {
		t.Errorf("same-hardware regressions: got %d failures, want 3 (ratio, iters/s, raw ns): %v", len(fails), fails)
	}

	// Skip path: a different CPU skips every cross-run timing gate and
	// says so, but an allocs/op rise still fails.
	report, fails = compare(baseline, slowY(mk("Xeon", 1, 200, 400, 3)), 10, 0)
	if !strings.Contains(report, "hardware differs") || !strings.Contains(report, "cross-run timing gates skipped") {
		t.Errorf("cross-hardware skip not reported:\n%s", report)
	}
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Errorf("cross-hardware run: want only the allocs/op failure, got %v", fails)
	}

	// A different GOMAXPROCS alone also counts as different hardware, and
	// the within-run speedup floor is still enforced there.
	report, fails = compare(baseline, mk("Xeon @ 2.70GHz", 2, 300, 400, 0), 10, 2)
	if !strings.Contains(report, "hardware differs") {
		t.Errorf("procs change not reported:\n%s", report)
	}
	if len(fails) != 1 || !strings.Contains(fails[0], "faster than") {
		t.Errorf("cross-procs run: want only the speedup-floor failure, got %v", fails)
	}

	// A baseline written before the procs field existed reads its procs
	// from the benchmark-name suffixes (none means 1).
	legacy := mk("Xeon @ 2.70GHz", 0, 100, 400, 0)
	if report, _ := compare(legacy, mk("Xeon @ 2.70GHz", 1, 100, 400, 0), 10, 0); strings.Contains(report, "hardware differs") {
		t.Errorf("legacy 1-proc baseline treated as different hardware:\n%s", report)
	}
}

func TestCompareItersPerSec(t *testing.T) {
	mk := func(itersPerSec float64) *File {
		return &File{Version: 1, Benchmarks: []Benchmark{{
			Name: "BenchmarkLargeClusterIterations", Pkg: "cynthia/internal/ddnnsim",
			Iters: 1, NsPerOp: 3e6, ItersPerSec: itersPerSec,
		}}}
	}
	if _, fails := compare(mk(30000), mk(29000), 10, 0); len(fails) != 0 {
		t.Errorf("small iters/s dip tripped the gate: %v", fails)
	}
	_, fails := compare(mk(30000), mk(20000), 10, 0)
	if len(fails) != 1 || !strings.Contains(fails[0], "iters/s") {
		t.Errorf("iters/s collapse not caught: %v", fails)
	}
	// At a loose threshold (raw gate 150%) the gate must stay live: a 3x
	// throughput collapse still fails.
	_, fails = compare(mk(30000), mk(10000), 50, 0)
	if len(fails) != 1 || !strings.Contains(fails[0], "iters/s") {
		t.Errorf("iters/s collapse at threshold 50 not caught: %v", fails)
	}
}

func TestParseItersPerSec(t *testing.T) {
	const out = `pkg: cynthia/internal/ddnnsim
BenchmarkLargeClusterIterations   122   3145562 ns/op   31791 iters/s   1027331 B/op   19047 allocs/op
BenchmarkLargeClusterIterations   120   3200000 ns/op   31200 iters/s   1027331 B/op   19047 allocs/op
PASS
`
	f, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(f.Benchmarks))
	}
	b := f.Benchmarks[0]
	// ns/op merges to the min, iters/s (higher is better) to the max.
	if b.NsPerOp != 3145562 || b.ItersPerSec != 31791 {
		t.Errorf("merged benchmark = %+v, want ns/op 3145562 and iters/s 31791", b)
	}
}
