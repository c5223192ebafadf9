package service

// Benchmarks of Service.Plan, kept as developer tools. The
// machine-independent property they used to gate, a quote allocates
// nothing, is pinned by TestHitPathDoesNotAllocate; what a quote costs
// end to end is cmd/cynthiabench's quote-hot and quote-cold.

import (
	"context"
	"testing"

	"cynthia/internal/obs"
)

// BenchmarkServePlan measures one client asking the same planning
// question repeatedly, every request a search.
func BenchmarkServePlan(b *testing.B) {
	s := newTestService(b, Config{Registry: obs.NewRegistry()})
	req := testRequest(b, s.Catalog(), 5400)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePlanParallel measures GOMAXPROCS concurrent clients on
// a repeated-request mix (cmd/cynthiabench's quote-hot), so the searches
// contend on the service lock.
func BenchmarkServePlanParallel(b *testing.B) {
	s := newTestService(b, Config{Registry: obs.NewRegistry(), QueueDepth: 4096})
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
}
