package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestExpositionConformance is the Prometheus text-format conformance
// suite: HELP-before-TYPE line ordering, TYPE strings per kind,
// deterministic label sorting regardless of child creation order, label
// escaping, and histogram le/+Inf structure.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	// Children created deliberately out of lexicographic order.
	v := r.CounterVec("conf_requests_total", "requests", "method", "code")
	v.With("POST", "500").Inc()
	v.With("GET", "200").Inc()
	v.With("DELETE", "404").Inc()
	r.Gauge("conf_up", "liveness").Set(1)
	h := r.HistogramVec("conf_latency_seconds", "latency", []float64{0.5}, "path")
	h.With("/z").Observe(0.1)
	h.With("/a").Observe(1)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")

	// HELP immediately precedes TYPE for every family, and no samples
	// appear before their family's TYPE line.
	seenType := map[string]bool{}
	for i, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("HELP for %s not followed by its TYPE line", name)
			}
			seenType[name] = true
		}
		if !strings.HasPrefix(line, "#") {
			name := line[:strings.IndexAny(line, "{ ")]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !seenType[name] && !seenType[base] {
				t.Errorf("sample %q appears before its TYPE line", line)
			}
		}
	}

	// Children are sorted by label values, not creation order.
	idx := func(s string) int { return strings.Index(out, s) }
	del, get, post := idx(`method="DELETE"`), idx(`method="GET"`), idx(`method="POST"`)
	if del < 0 || get < 0 || post < 0 || !(del < get && get < post) {
		t.Errorf("label sorting wrong: DELETE@%d GET@%d POST@%d\n%s", del, get, post, out)
	}
	if a, z := idx(`path="/a"`), idx(`path="/z"`); !(a >= 0 && z >= 0 && a < z) {
		t.Errorf("histogram children unsorted: /a@%d /z@%d", a, z)
	}

	// Histogram exposition: every le bucket, then +Inf, then sum/count.
	for _, want := range []string{
		`conf_latency_seconds_bucket{path="/a",le="0.5"} 0`,
		`conf_latency_seconds_bucket{path="/a",le="+Inf"} 1`,
		`conf_latency_seconds_sum{path="/a"} 1`,
		`conf_latency_seconds_count{path="/a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// TYPE strings match kinds.
	for _, want := range []string{
		"# TYPE conf_requests_total counter",
		"# TYPE conf_up gauge",
		"# TYPE conf_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}

	// Exposition is reproducible call to call.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("two expositions of the same registry differ")
	}
}

// TestExpositionLabelEscaping covers the full escaping matrix the text
// format requires in label values.
func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("esc_conf", "", "k")
	v.With("plain").Set(1)
	v.With(`back\slash`).Set(1)
	v.With("new\nline").Set(1)
	v.With(`quo"te`).Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`esc_conf{k="plain"} 1`,
		`esc_conf{k="back\\slash"} 1`,
		`esc_conf{k="new\nline"} 1`,
		`esc_conf{k="quo\"te"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("escaping missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotChildrenSorted mirrors the exposition sorting contract on
// the JSON snapshot path.
func TestSnapshotChildrenSorted(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("snap_sorted", "", "w")
	v.With("c").Set(3)
	v.With("a").Set(1)
	v.With("b").Set(2)
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("families = %d", len(snap))
	}
	var order []string
	for _, m := range snap[0].Metrics {
		order = append(order, m.Labels["w"])
	}
	if strings.Join(order, "") != "abc" {
		t.Errorf("snapshot children order = %v, want [a b c]", order)
	}
}
