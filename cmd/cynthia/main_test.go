package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run("", "", 0, 0, "", "", "cynthia", 0, false, true); err != nil {
		t.Fatalf("list mode failed: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"unknown workload", func() error {
			return run("NoSuchNet", "", 3600, 0.8, "m4.xlarge", "cynthia", "cynthia", 0, false, false)
		}},
		{"unknown baseline", func() error {
			return run("mnist DNN", "", 3600, 0.8, "z9.huge", "cynthia", "cynthia", 0, false, false)
		}},
		{"unknown predictor", func() error {
			return run("mnist DNN", "", 3600, 0.8, "m4.xlarge", "oracle", "cynthia", 0, false, false)
		}},
		{"unknown provisioner", func() error {
			return run("mnist DNN", "", 3600, 0.8, "m4.xlarge", "cynthia", "round-robin", 0, false, false)
		}},
		{"missing workload file", func() error {
			return run("", "/nonexistent/w.json", 3600, 0.8, "m4.xlarge", "cynthia", "cynthia", 0, false, false)
		}},
		{"NaN deadline", func() error { // flag.Float64 parses "NaN"
			return run("mnist DNN", "", math.NaN(), 0.8, "m4.xlarge", "cynthia", "cynthia", 0, false, false)
		}},
	}
	for _, c := range cases {
		if err := c.fn(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRunPlansAndValidates(t *testing.T) {
	if err := run("mnist DNN", "", 1800, 0.2, "m4.xlarge", "cynthia", "cynthia", 0, true, false); err != nil {
		t.Fatalf("plan+validate failed: %v", err)
	}
}

func TestRunPaleoPredictor(t *testing.T) {
	if err := run("mnist DNN", "", 1800, 0.2, "m4.xlarge", "paleo", "cynthia", 0, false, false); err != nil {
		t.Fatalf("paleo predictor failed: %v", err)
	}
}

func TestRunMarginalGainProvisioner(t *testing.T) {
	if err := run("mnist DNN", "", 1800, 0.2, "m4.xlarge", "cynthia", "optimus-mg", 0, false, false); err != nil {
		t.Fatalf("marginal-gain provisioner failed: %v", err)
	}
}

func TestRunControlledTimeline(t *testing.T) {
	fi := faultInjection{PreemptAt: 100, Seed: 7, Timeline: true}
	if err := runControlled("mnist DNN", "", 1800, 0.2, fi); err != nil {
		t.Fatalf("controlled run with -timeline failed: %v", err)
	}
}

func TestRunCustomWorkloadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	payload := `{"name":"custom","witer_gflops":5,"gparam_mb":2,"batch":64,` +
		`"iterations":1000,"sync":"BSP","ps_cpu_per_mb":0.02,"loss_beta0":100,"loss_beta1":0.1}`
	if err := os.WriteFile(path, []byte(payload), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, 3600, 0.3, "m4.xlarge", "cynthia", "cynthia", 0, false, false); err != nil {
		t.Fatalf("custom workload failed: %v", err)
	}
}
