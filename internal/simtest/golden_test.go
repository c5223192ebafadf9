package simtest

import (
	"encoding/json"
	"flag"
	"path/filepath"
	"reflect"
	"testing"

	"cynthia/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden scenario expectations in place")

// TestGoldenScenarios replays every scenario under testdata/scenarios
// through the full planner -> controller -> ddnnsim pipeline and compares
// the outcome to the stored expectation with reflect.DeepEqual — floats
// included, bit-for-bit, since encoding/json round-trips float64 exactly.
// After an intentional behaviour change, regenerate with:
//
//	go test ./internal/simtest -run Golden -update
func TestGoldenScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("golden corpus has %d scenarios, want at least 8", len(paths))
	}
	faulted := 0
	for _, path := range paths {
		s, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Fault != nil {
			faulted++
		}
		t.Run(s.Name, func(t *testing.T) {
			out, err := RunScenario(s)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if *update {
				s.Expect = out
				if err := s.Save(path); err != nil {
					t.Fatal(err)
				}
				return
			}
			if s.Expect == nil {
				t.Fatalf("%s has no expectation; generate one with -update", path)
			}
			if !reflect.DeepEqual(out, s.Expect) {
				got, _ := json.MarshalIndent(out, "", "  ")
				want, _ := json.MarshalIndent(s.Expect, "", "  ")
				t.Errorf("outcome diverged from golden file\n got: %s\nwant: %s", got, want)
			}
		})
	}
	if faulted < 2 {
		t.Errorf("golden corpus has %d scenarios with fault schedules, want at least 2", faulted)
	}
}

// TestGoldenCorpusNoUtilizationClamps replays every golden scenario and
// asserts the process-wide Utilization clamp counter does not move: none
// of the 11 end-to-end runs drives a resource's busy integral past its
// capacity (the drift the old silent clamp in Resource.Utilization would
// have masked).
func TestGoldenCorpusNoUtilizationClamps(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden scenarios found")
	}
	// flow counts its clamps in the default registry.
	clamps := obs.Default().Counter("cynthia_flow_util_clamp_total", "")
	before := clamps.Value()
	for _, path := range paths {
		s, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunScenario(s); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
	}
	if delta := clamps.Value() - before; delta != 0 {
		t.Errorf("golden corpus produced %d utilization clamps, want 0 (accounting drift)", delta)
	}
}
