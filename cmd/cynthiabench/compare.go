package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance records where a result was measured. compare refuses to judge
// two results whose hardware, toolchain or configuration differ; only the
// revision may.
type provenance struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	StateFS    string `json:"state_dir_fs"`
	Revision   string `json:"vcs_revision"`
}

func currentProvenance(stateDir string) provenance {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		StateFS:    filesystem(stateDir),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Revision += "+dirty"
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// mismatch lists the provenance fields that make two results incomparable.
func (p provenance) mismatch(q provenance) []string {
	var out []string
	check := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	check("GOMAXPROCS", p.GOMAXPROCS, q.GOMAXPROCS)
	check("NumCPU", p.NumCPU, q.NumCPU)
	check("CPU model", p.CPUModel, q.CPUModel)
	check("Go version", p.GoVersion, q.GoVersion)
	check("state-dir filesystem", p.StateFS, q.StateFS)
	return out
}

// compareMain prints, for each workload and end-to-end metric, both sides'
// median and quartiles and a verdict against the metric's bound: better or
// worse by more than the bound, same within it, or unresolved when either
// side's quartile spread exceeds the bound. It exits 1 when anything is
// worse or unresolved and 2 when it refuses to compare.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: cynthiabench compare <a.json> <b.json>")
		return 2
	}
	a, errA := loadResult(args[0])
	b, errB := loadResult(args[1])
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "cynthiabench compare:", err)
		return 2
	}
	var why []string
	why = append(why, a.Provenance.mismatch(b.Provenance)...)
	if a.ConfigHash != b.ConfigHash {
		why = append(why, fmt.Sprintf("configuration hash: %s vs %s", a.ConfigHash, b.ConfigHash))
	}
	if a.Seed != b.Seed {
		why = append(why, fmt.Sprintf("seed: %d vs %d", a.Seed, b.Seed))
	}
	if len(why) > 0 {
		fmt.Fprintln(stderr, "cynthiabench compare: REFUSING to compare: the results were measured under different conditions:")
		for _, w := range why {
			fmt.Fprintln(stderr, "  "+w)
		}
		return 2
	}
	fmt.Fprintf(stdout, "a: %s (%s)\nb: %s (%s)\n", args[0], a.Provenance.Revision, args[1], b.Provenance.Revision)
	fmt.Fprintf(stdout, "%-13s %-13s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "delta", "bound", "verdict")
	bad := 0
	for _, s := range specs {
		wa, wb := a.Workloads[s.Name], b.Workloads[s.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v, delta := verdict(m, sa, sb)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-13s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", s.Name, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Median, sb.Q1, sb.Q3),
				100*delta, 100*m.Bound, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// verdict judges b against a. delta is b's change relative to a's median,
// signed so that positive is worse.
func verdict(m metricDef, a, b stat) (string, float64) {
	delta := 0.0
	switch {
	case a.Median != 0:
		delta = (b.Median - a.Median) / a.Median
	case b.Median != 0:
		delta = 1
	}
	if m.Better == "higher" {
		delta = -delta
	}
	spread := func(s stat) float64 { return ratio(s.Q3-s.Q1, s.Median) }
	switch {
	case m.Bound == 0: // any increase is a regression
		if delta > 0 {
			return "worse", delta
		}
		if delta < 0 {
			return "better", delta
		}
		return "same", delta
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", delta
	case delta > m.Bound:
		return "worse", delta
	case delta < -m.Bound:
		return "better", delta
	}
	return "same", delta
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
