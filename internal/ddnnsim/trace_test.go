package ddnnsim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/*.trace.json from the current simulator")

// TestTraceMatchesGolden pins the exported Chrome trace of a BSP and an
// ASP run byte for byte: span names, categories, tracks, timestamps and
// record order. PS CPU costs are on, so every span kind appears (compute,
// push, pull, the ".cpu" aggregate spans and BSP barriers). Flow and span
// labels are built only when a tracer is attached, so no other test would
// notice them drift. After an intended change, regenerate with:
//
//	go test ./internal/ddnnsim -run TraceMatchesGolden -update
func TestTraceMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		cluster  cloud.ClusterSpec
		iters    int
	}{
		{"bsp", "mnist DNN", cloud.Heterogeneous(m4, m1, 2, 2), 3},
		{"asp", "ResNet-32", cloud.Homogeneous(m4, 3, 2), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := new(obs.Tracer)
			run(t, mustWorkload(t, tc.workload), tc.cluster, Options{Iterations: tc.iters, Seed: 1, Trace: tr})
			var got bytes.Buffer
			if err := tr.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".trace.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate it with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("trace diverged from %s\n got: %s\nwant: %s", path, got.Bytes(), want)
			}
		})
	}
}
