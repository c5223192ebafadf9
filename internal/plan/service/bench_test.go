package service

// Benchmarks of the cached hit path, kept as developer tools. The
// machine-independent property they used to gate, a hit allocates
// nothing, is pinned by TestHitPathDoesNotAllocate; what the cache buys
// end to end is cmd/cynthiabench's quote-hot vs. quote-cold.

import (
	"context"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/obs"
	"cynthia/internal/plan"
)

// BenchmarkServePlan measures one client asking the same planning
// question repeatedly, every request a cache hit.
func BenchmarkServePlan(b *testing.B) {
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
}

// BenchmarkServePlanParallel measures GOMAXPROCS concurrent clients on a
// pre-warmed repeated-request mix (cmd/cynthiabench's quote-hot), so the
// steady state is all hits contending on the service lock.
func BenchmarkServePlanParallel(b *testing.B) {
	s := newTestService(b, Config{Registry: obs.NewRegistry(), QueueDepth: 4096})
	ctx := context.Background()
	req5400 := testRequest(b, s.Catalog(), 5400)
	req3600 := testRequest(b, s.Catalog(), 3600)
	req1800 := testRequest(b, s.Catalog(), 1800)
	for _, req := range []plan.Request{req5400, req3600, req1800} {
		if _, err := s.Plan(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
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
}

// BenchmarkFingerprint measures computing one cache key.
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
