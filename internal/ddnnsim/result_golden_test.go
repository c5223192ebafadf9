package ddnnsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

// resultGoldenCases is the matrix TestResultMatchesGolden pins: every
// Table 1 workload on six cluster shapes, two seeds (the second on the
// paper's straggler cluster), under the default options, NoOverlap, a
// mid-run fault with checkpointing, and PS NIC tracing.
func resultGoldenCases(t *testing.T) []string {
	var lines []string
	for _, name := range []string{"mnist DNN", "cifar10 DNN", "ResNet-32", "VGG-19"} {
		w := mustWorkload(t, name)
		for _, shape := range [][2]int{{1, 1}, {3, 1}, {18, 2}, {22, 3}, {32, 1}, {12, 4}} {
			nWk, nPS := shape[0], shape[1]
			iters := 40
			if w.Sync == model.ASP {
				iters = 4*nWk + 10
			}
			for seed := int64(1); seed <= 2; seed++ {
				cluster := cloud.Homogeneous(m4, nWk, nPS)
				if seed == 2 {
					cluster = cloud.Heterogeneous(m4, m1, nWk, nPS)
				}
				base := Options{Iterations: iters, Seed: seed, RecordIterations: true}
				def := run(t, w, cluster, base)
				noOverlap, fault, traced := base, base, base
				noOverlap.NoOverlap = true
				fault.CheckpointEvery = 4
				fault.Faults = []Fault{{AtSec: 0.55 * def.TrainingTime, Role: "worker", Index: nWk - 1}}
				traced.TraceBin = def.TrainingTime / 16
				for _, c := range []struct {
					opt string
					res *Result
				}{
					{"default", def},
					{"nooverlap", run(t, w, cluster, noOverlap)},
					{"fault", run(t, w, cluster, fault)},
					{"tracebin", run(t, w, cluster, traced)},
				} {
					key := fmt.Sprintf("%s/%dx%d/s%d/%s", w.Name, nWk, nPS, seed, c.opt)
					lines = append(lines, key+" "+resultBits(c.res))
				}
			}
		}
	}
	return lines
}

// resultBits renders every Result field exactly: scalars as float bits or
// integers, slices as an FNV-64a digest of their bits.
func resultBits(r *Result) string {
	f := math.Float64bits
	digest := func(write func(add func(uint64))) string {
		h := fnv.New64a()
		var b [8]byte
		write(func(v uint64) {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		})
		return fmt.Sprintf("%016x", h.Sum64())
	}
	floats := func(xs []float64) string {
		return digest(func(add func(uint64)) {
			add(uint64(len(xs)))
			for _, x := range xs {
				add(f(x))
			}
		})
	}
	series := digest(func(add func(uint64)) {
		for _, s := range r.PSNICSeries {
			rates := s.Rates()
			add(uint64(len(rates)))
			for _, x := range rates {
				add(f(x))
			}
		}
	})
	loss := digest(func(add func(uint64)) {
		for _, p := range r.Loss {
			add(uint64(p.Iter))
			add(f(p.Time))
			add(f(p.Loss))
		}
	})
	perWorker := digest(func(add func(uint64)) {
		for _, n := range r.PerWorkerIterations {
			add(uint64(n))
		}
	})
	records := digest(func(add func(uint64)) {
		for _, rec := range r.IterRecords {
			add(uint64(rec.Index))
			add(uint64(rec.Worker))
			add(f(rec.EndSec))
			add(f(rec.ComputeSec))
			add(f(rec.CommSec))
		}
	})
	return fmt.Sprintf("t=%x n=%d mean=%x comp=%x comm=%x final=%x int=%t ckpt=%d lost=%d wkcpu=%s pscpu=%s psnic=%s series=%s loss=%s perwk=%s recs=%s",
		f(r.TrainingTime), r.Iterations, f(r.MeanIterTime), f(r.ComputeTime), f(r.CommTime), f(r.FinalLoss),
		r.Interrupted, r.CheckpointIter, r.LostIterations,
		floats(r.WorkerCPUUtil), floats(r.PSCPUUtil), floats(r.PSNICUtil), series, loss, perWorker, records)
}

// TestResultMatchesGolden pins every output bit of the simulator over the
// resultGoldenCases matrix: times, utilizations, NIC series, loss curve,
// per-worker counts, iteration records and checkpoint accounting. The
// engine's event order, allocation and accounting all feed these bits, so
// an optimisation that claims to change none of them is checked here.
// After an intended change, regenerate with:
//
//	go test ./internal/ddnnsim -run ResultMatchesGolden -update
func TestResultMatchesGolden(t *testing.T) {
	got := []byte(strings.Join(resultGoldenCases(t), "\n") + "\n")
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("results diverged from %s at line %d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("results diverged from %s: %d lines, want %d", path, len(gl), len(wl))
}
