package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"` // without the -<procs> suffix
	Pkg         string  `json:"pkg,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	ItersPerSec float64 `json:"iters_per_sec,omitempty"` // custom b.ReportMetric, higher is better
}

// File is the committed baseline format (BENCH_flow.json). CPU and Procs
// identify the hardware: compare runs its cross-run timing gates only
// when both match.
type File struct {
	Version    int         `json:"version"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Procs      int         `json:"procs,omitempty"` // GOMAXPROCS of the run
	Benchmarks []Benchmark `json:"benchmarks"`
}

// procs returns the GOMAXPROCS a run was captured at. Files written before
// the field existed fall back to the benchmark-name suffixes; go test
// omits the suffix at GOMAXPROCS=1.
func procs(f *File) int {
	if f.Procs > 0 {
		return f.Procs
	}
	for _, b := range f.Benchmarks {
		if b.Procs > 0 {
			return b.Procs
		}
	}
	return 1
}

// parseBench reads `go test -bench` text output: goos/goarch/cpu/pkg
// header lines and benchmark result lines of the shape
//
//	BenchmarkName/sub-8   448148   2503 ns/op   0 B/op   0 allocs/op
func parseBench(r io.Reader) (*File, error) {
	out := &File{Version: 1}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				b.Pkg = pkg
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on input")
	}
	out.Benchmarks = mergeMin(out.Benchmarks)
	out.Procs = procs(out)
	return out, nil
}

// mergeMin collapses repeated samples of the same benchmark (go test
// -count=N) into one entry holding the per-metric minimum — the standard
// noise-robust statistic for benchmark results: scheduler interference
// only ever adds time and allocations, never removes them. Order of first
// appearance is preserved.
func mergeMin(in []Benchmark) []Benchmark {
	byName := make(map[string]int, len(in))
	var out []Benchmark
	for _, b := range in {
		i, seen := byName[b.Name]
		if !seen {
			byName[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if b.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = b.NsPerOp
			out[i].Iters = b.Iters
		}
		out[i].BytesPerOp = min(out[i].BytesPerOp, b.BytesPerOp)
		out[i].AllocsPerOp = min(out[i].AllocsPerOp, b.AllocsPerOp)
		// iters/s is a throughput: higher is better, so keep the max.
		out[i].ItersPerSec = max(out[i].ItersPerSec, b.ItersPerSec)
	}
	return out
}

// parseLine parses one result line; ok is false for lines that start with
// "Benchmark" but are not results (e.g. a bare name printed before a
// sub-benchmark runs).
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false, nil
	}
	var b Benchmark
	b.Name = fields[0]
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // not a result line
	}
	b.Iters = iters
	// The rest is value/unit pairs: 2503 ns/op, 0 B/op, 0 allocs/op.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("parsing %q: bad value %q", line, fields[i])
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "iters/s":
			b.ItersPerSec = v
		}
	}
	if b.NsPerOp == 0 && !strings.Contains(line, "ns/op") {
		return Benchmark{}, false, nil
	}
	return b, true, nil
}

func runParse(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("parse", flag.ContinueOnError)
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := parseBench(in)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
	return nil
}

func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(File)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// referenceSibling maps Foo/incremental -> Foo/reference.
func referenceSibling(name string) (string, bool) {
	if strings.HasSuffix(name, "/incremental") {
		return strings.TrimSuffix(name, "/incremental") + "/reference", true
	}
	return "", false
}

func index(f *File) map[string]Benchmark {
	m := make(map[string]Benchmark, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		m[b.Name] = b
	}
	return m
}

// compare checks current against baseline and returns human-readable
// failures (empty = pass) plus a benchstat-style report. The cross-run
// timing gates (ns/op, ratios against the baseline, iters/s) run only when
// both files come from the same CPU at the same GOMAXPROCS; the alloc gate
// and the within-run speedup floor run everywhere.
func compare(baseline, current *File, thresholdPct, minSpeedup float64) (report string, failures []string) {
	base := index(baseline)
	cur := index(current)
	var names []string
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	var sb strings.Builder
	sameHardware := baseline.CPU == current.CPU && procs(baseline) == procs(current)
	if !sameHardware {
		fmt.Fprintf(&sb, "WARNING: hardware differs (baseline %q at %d procs, current %q at %d procs): cross-run timing gates skipped\n",
			baseline.CPU, procs(baseline), current.CPU, procs(current))
	}
	fmt.Fprintf(&sb, "%-44s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, n := range names {
		c := cur[n]
		b, inBase := base[n]
		if !inBase {
			fmt.Fprintf(&sb, "%-44s %14s %14.0f %8s\n", n, "-", c.NsPerOp, "new")
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		fmt.Fprintf(&sb, "%-44s %14.0f %14.0f %+7.1f%%\n", n, b.NsPerOp, c.NsPerOp, delta)

		// Gate 1: allocations never increase (machine-independent). The
		// 0.1%+0.5 slack keeps zero-alloc benchmarks strict (a single
		// new allocation still fails) while letting end-to-end runs with
		// tens of thousands of allocs absorb +/-1 amortization jitter
		// from benchtime-dependent slice growth.
		if c.AllocsPerOp > b.AllocsPerOp*1.001+0.5 {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op rose %.0f -> %.0f", n, b.AllocsPerOp, c.AllocsPerOp))
		}

		if !sameHardware {
			continue
		}

		// Raw (non-ratio) comparisons against the baseline carry run-to-run
		// host drift (shared VMs, frequency scaling), so they gate at 3x the
		// threshold; sibling-ratio gates below keep the tight threshold
		// because the ratio cancels host speed.
		rawPct := 3 * thresholdPct

		// Gate on iters/s where both runs report it (custom throughput
		// metric, higher is better). It mirrors the raw ns/op gate: the
		// time per iteration may grow by at most rawPct, so the gate stays
		// live at any threshold (a "fell by rawPct" bound would go
		// negative, and silently pass everything, above 100%).
		if b.ItersPerSec > 0 && c.ItersPerSec > 0 &&
			c.ItersPerSec*(1+rawPct/100) < b.ItersPerSec {
			failures = append(failures, fmt.Sprintf(
				"%s: iters/s fell %.0f -> %.0f (time per iteration up > %.0f%%)",
				n, b.ItersPerSec, c.ItersPerSec, rawPct))
		}

		// Gate 2: ns/op regression beyond the threshold. When both runs
		// carry the /reference sibling, compare the incremental/reference
		// ratio instead of raw ns — the ratio cancels host drift.
		refName, hasRef := referenceSibling(n)
		if hasRef {
			bref, okB := base[refName]
			cref, okC := cur[refName]
			if okB && okC && bref.NsPerOp > 0 && cref.NsPerOp > 0 {
				baseRatio := b.NsPerOp / bref.NsPerOp
				curRatio := c.NsPerOp / cref.NsPerOp
				if curRatio > baseRatio*(1+thresholdPct/100) {
					failures = append(failures, fmt.Sprintf(
						"%s: ns/op relative to %s regressed %.3f -> %.3f (> %.0f%%)",
						n, refName, baseRatio, curRatio, thresholdPct))
				}
				continue
			}
		}
		// "/reference" benchmarks are the oracle denominator, not a
		// protected hot path: their raw speed gates nothing (the paired
		// incremental benchmark is gated on the ratio against them).
		if delta > rawPct && !strings.HasSuffix(n, "/reference") {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op regressed %.0f -> %.0f (%+.1f%% > %.0f%%)",
				n, b.NsPerOp, c.NsPerOp, delta, rawPct))
		}
	}

	// Gate 3: the tentpole acceptance — within the current run, every
	// incremental allocator benchmark beats its reference sibling by at
	// least minSpeedup.
	if minSpeedup > 0 {
		for _, n := range names {
			refName, ok := referenceSibling(n)
			if !ok {
				continue
			}
			ref, okRef := cur[refName]
			if !okRef || cur[n].NsPerOp <= 0 {
				continue
			}
			speedup := ref.NsPerOp / cur[n].NsPerOp
			fmt.Fprintf(&sb, "%-44s speedup vs reference: %.2fx (floor %.1fx)\n", n, speedup, minSpeedup)
			if speedup < minSpeedup {
				failures = append(failures, fmt.Sprintf(
					"%s: only %.2fx faster than %s, want >= %.1fx", n, speedup, refName, minSpeedup))
			}
		}
	}

	return sb.String(), failures
}

func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_flow.json", "committed baseline JSON")
	currentPath := fs.String("current", "", "current run JSON (from benchjson parse)")
	threshold := fs.Float64("threshold", 10, "max ns/op regression percent")
	minSpeedup := fs.Float64("min-speedup", 2, "min incremental-vs-reference speedup in the current run (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *currentPath == "" {
		return fmt.Errorf("compare: -current is required")
	}
	baseline, err := loadFile(*baselinePath)
	if err != nil {
		return err
	}
	current, err := loadFile(*currentPath)
	if err != nil {
		return err
	}
	report, failures := compare(baseline, current, *threshold, *minSpeedup)
	io.WriteString(stdout, report)
	if len(failures) > 0 {
		return fmt.Errorf("%d perf gate failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(stdout, "perf gates passed")
	return nil
}
