package service

// The committed BENCH_plan.json baseline is produced from these
// benchmarks (make bench-json) and gated in CI (make bench-check): the
// /incremental (cached) paths must stay allocation-free and at least 10x
// faster than their /reference siblings — the no-cache path that pays
// the full Theorem 4.1 scan on every request, which is what every
// request paid before the plan service existed. The ratio-based gate
// holds across hardware generations.

import (
	"context"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/obs"
)

// BenchmarkServePlan measures one client asking the same planning
// question repeatedly: the cached path versus a full search per request.
func BenchmarkServePlan(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		s := newTestService(b, Config{Registry: obs.NewRegistry()})
		req := testRequest(b, s.Catalog(), 5400)
		ctx := context.Background()
		if _, err := s.Plan(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := s.Plan(ctx, req)
			if err != nil || resp.Outcome != OutcomeHit {
				b.Fatalf("hit failed: %v %s", err, resp.Outcome)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		s := newTestService(b, Config{Registry: obs.NewRegistry(), CacheCapacity: -1})
		req := testRequest(b, s.Catalog(), 5400)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Plan(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServePlanParallel measures GOMAXPROCS concurrent clients on a
// repeated-request mix (cmd/cynthiabench's quote-hot): cross-request caching
// versus every client paying its own scan.
func BenchmarkServePlanParallel(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		s := newTestService(b, Config{Registry: obs.NewRegistry(), QueueDepth: 4096})
		mixReqs := []float64{5400, 5400, 5400, 3600, 3600, 1800}
		ctx := context.Background()
		// Pre-warm every question in the mix: steady state is all hits.
		for _, d := range mixReqs {
			if _, err := s.Plan(ctx, testRequest(b, s.Catalog(), d)); err != nil {
				b.Fatal(err)
			}
		}
		req5400 := testRequest(b, s.Catalog(), 5400)
		req3600 := testRequest(b, s.Catalog(), 3600)
		req1800 := testRequest(b, s.Catalog(), 1800)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				req := req5400
				switch i % 6 {
				case 3, 4:
					req = req3600
				case 5:
					req = req1800
				}
				i++
				if _, err := s.Plan(ctx, req); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("reference", func(b *testing.B) {
		s := newTestService(b, Config{Registry: obs.NewRegistry(), CacheCapacity: -1})
		ctx := context.Background()
		req5400 := testRequest(b, s.Catalog(), 5400)
		req3600 := testRequest(b, s.Catalog(), 3600)
		req1800 := testRequest(b, s.Catalog(), 1800)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				req := req5400
				switch i % 6 {
				case 3, 4:
					req = req3600
				case 5:
					req = req1800
				}
				i++
				if _, err := s.Plan(ctx, req); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkFingerprint pins the cost of computing one cache key.
func BenchmarkFingerprint(b *testing.B) {
	req := testRequest(b, cloud.DefaultCatalog(), 5400)
	nreq, err := req.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(nreq)
	}
}
