package service

// Workload fingerprinting: the cache key must change whenever any input
// that could change the search's answer changes, and must not change
// otherwise. Everything the engine's Normalize → enumerate → evaluate
// pipeline reads is folded into one FNV-1a hash: the profiled workload
// (name, sync mode, loss-model coefficients, batch), the profile
// measurements (Theorem 4.1 consumes all five), the baseline type, the
// predictor, and the goal. The catalog is deliberately
// NOT hashed here — it is identified by (Catalog.ID, Catalog.Epoch) in
// the Key, so a price mutation invalidates without rehashing the types.

import (
	"math"
	"strconv"

	"cynthia/internal/plan"
)

// String renders a Key for journal events and API responses.
func (k Key) String() string {
	return "c" + strconv.FormatUint(k.CatalogID, 10) +
		".e" + strconv.FormatUint(k.Epoch, 10) +
		".f" + strconv.FormatUint(k.Fingerprint, 16)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) byte(b byte) {
	*h = (*h ^ fnv64(b)) * fnvPrime
}

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // terminator: ("ab","c") must not collide with ("a","bc")
}

func (h *fnv64) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv64) i(v int) { h.u64(uint64(int64(v))) }

// Fingerprint hashes the planning question a request poses. Requests that
// normalize identically fingerprint identically; fingerprint the
// Normalized form (Plan does) so a default predictor and an explicit
// perf.Cynthia collapse. It does not allocate.
func Fingerprint(req plan.Request) uint64 {
	h := fnv64(fnvOffset)
	if req.Profile != nil {
		if w := req.Profile.Workload; w != nil {
			h.str(w.Name)
			h.i(int(w.Sync))
			h.i(w.Batch)
			h.i(w.Iterations)
			h.f64(w.Loss.Beta0)
			h.f64(w.Loss.Beta1)
		}
		h.f64(req.Profile.TBaseIter)
		h.f64(req.Profile.WiterGFLOPs)
		h.f64(req.Profile.GparamMB)
		h.f64(req.Profile.CprofGFLOPS)
		h.f64(req.Profile.BprofMBps)
		h.str(req.Profile.Base.Name)
		h.f64(req.Profile.Base.GFLOPS)
		h.f64(req.Profile.Base.NetMBps)
		h.f64(req.Profile.Base.PricePerHour)
	}
	if req.Predictor != nil {
		h.str(req.Predictor.Name())
	}
	h.f64(req.Goal.TimeSec)
	h.f64(req.Goal.LossTarget)
	return uint64(h)
}
