package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTracerExplicitTimestamps(t *testing.T) {
	var tr Tracer
	tr.ProcessName(1, "workers")
	tr.ThreadName(1, 0, "worker 0")
	tr.Complete(1, 0, "compute", "comp.r0", 0, 1.5)
	tr.Complete(1, 0, "push", "push.r0", 1.5, 2.0)
	tr.Instant(0, 0, "barrier", "barrier.r0", 2.0)
	ev := tr.Events()
	if len(ev) != 5 {
		t.Fatalf("len = %d, want 5", len(ev))
	}
	// Metadata first, then by timestamp.
	if ev[0].Ph != "M" || ev[1].Ph != "M" {
		t.Errorf("metadata not first: %+v", ev[:2])
	}
	if ev[2].Name != "comp.r0" || ev[2].Dur != 1.5e6 {
		t.Errorf("span = %+v", ev[2])
	}
	for i := 3; i < len(ev); i++ {
		if ev[i].Ts < ev[i-1].Ts {
			t.Errorf("events out of order at %d: %v after %v", i, ev[i].Ts, ev[i-1].Ts)
		}
	}
}

func TestTracerNegativeDurationClamped(t *testing.T) {
	var tr Tracer
	tr.Complete(0, 0, "x", "backwards", 5, 3)
	if ev := tr.Events(); ev[0].Dur != 0 || ev[0].Ts != 5e6 {
		t.Errorf("clamped span = %+v", ev[0])
	}
}

// TestTracerConcurrent records spans from many goroutines under -race.
func TestTracerConcurrent(t *testing.T) {
	var tr Tracer
	var wg sync.WaitGroup
	const goroutines, spans = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				tr.Complete(1, g, "work", "unit", float64(i), float64(i+1))
			}
		}(g)
	}
	wg.Wait()
	if n := len(tr.Events()); n != goroutines*spans {
		t.Errorf("len = %d, want %d", n, goroutines*spans)
	}
}

// TestWriteJSONRoundTrip verifies the export is strictly valid JSON with
// monotonically ordered timestamps — the contract the cynthiasim
// --trace-out file relies on.
func TestWriteJSONRoundTrip(t *testing.T) {
	var tr Tracer
	tr.ProcessName(1, "p")
	tr.Complete(1, 0, "b", "second", 2, 3)
	tr.Complete(1, 0, "a", "first", 0, 1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 3 {
		t.Fatalf("events = %d, want 3", len(out))
	}
	last := -1.0
	for _, e := range out[1:] { // skip metadata
		if e.Ts < last {
			t.Errorf("timestamps not monotone: %v after %v", e.Ts, last)
		}
		last = e.Ts
	}
	if !strings.Contains(buf.String(), `"name":"first"`) {
		t.Error("missing span in export")
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("cynthia_ps_push_total", "pushes").Add(2)
	srv := httptest.NewServer(Mux(r))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":        "cynthia_ps_push_total 2",
		"/debug/snapshot": `"cynthia_ps_push_total"`,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s missing %q:\n%s", path, want, buf.String())
		}
	}
}
