package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if same := r.Counter("c_total", "a counter"); same != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative counter add did not panic")
			}
		}()
		c.Add(-1)
	}()
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestHistogramBucketBoundaries pins the "le" semantics: a value equal to
// an upper bound lands in that bucket, values beyond the last bound land
// in +Inf, and cumulative exposition counts add up.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.0000001, 2, 3, 4, 5, 1e9} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // {<=1}: 0,1; (1,2]: 1.0000001,2; (2,4]: 3,4; +Inf: 5,1e9
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if got := h.Sum(); math.Abs(got-(0+1+1.0000001+2+3+4+5+1e9)) > 1e-6 {
		t.Errorf("sum = %v", got)
	}
	// Unsorted and duplicated bounds are normalized.
	h2 := r.Histogram("lat2", "", []float64{4, 1, 2, 2})
	h2.Observe(1.5)
	if got := h2.buckets[1].Load(); got != 1 {
		t.Errorf("normalized bucket = %d, want 1", got)
	}
}

// TestPrometheusExpositionGolden locks the exact text format.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cynthia_test_pushes_total", "gradient pushes")
	c.Add(3)
	g := r.GaugeVec("cynthia_test_util", "utilization", "ps")
	g.With("0").Set(0.75)
	g.With("1").Set(1)
	h := r.Histogram("cynthia_test_latency_seconds", "push latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP cynthia_test_pushes_total gradient pushes",
		"# TYPE cynthia_test_pushes_total counter",
		"cynthia_test_pushes_total 3",
		"# HELP cynthia_test_util utilization",
		"# TYPE cynthia_test_util gauge",
		`cynthia_test_util{ps="0"} 0.75`,
		`cynthia_test_util{ps="1"} 1`,
		"# HELP cynthia_test_latency_seconds push latency",
		"# TYPE cynthia_test_latency_seconds histogram",
		`cynthia_test_latency_seconds_bucket{le="0.1"} 1`,
		`cynthia_test_latency_seconds_bucket{le="1"} 2`,
		`cynthia_test_latency_seconds_bucket{le="+Inf"} 3`,
		"cynthia_test_latency_seconds_sum 2.55",
		"cynthia_test_latency_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("esc", "", "k").With(`a"b\c` + "\n").Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `esc{k="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", buf.String())
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.HistogramVec("h", "", []float64{1}, "role").With("worker").Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap []FamilySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap) != 2 || snap[0].Name != "a_total" || snap[0].Metrics[0].Value != 7 {
		t.Errorf("snapshot = %+v", snap)
	}
	hm := snap[1].Metrics[0]
	if hm.Labels["role"] != "worker" || hm.Count != 1 || hm.Buckets[0] != 1 {
		t.Errorf("histogram snapshot = %+v", hm)
	}
}

// TestRegistryConcurrency hammers every collector type from many
// goroutines while snapshots and exposition run concurrently; run with
// -race to verify the synchronization story.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "")
			g := r.GaugeVec("conc_gauge", "", "w")
			h := r.Histogram("conc_hist", "", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.With(string(rune('a' + w))).Set(float64(i))
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.WritePrometheus(&bytes.Buffer{})
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Counter("conc_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("conc_hist", "", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}
