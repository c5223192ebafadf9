// Package cloud models an IaaS provider: an immutable instance-type
// catalog with CPU, network, and on-demand price attributes, a spot
// market whose prices come from replayable traces, and a simulated
// control plane that launches, describes, and terminates instances with
// per-second billing.
//
// The catalog stands in for Amazon EC2 in the Cynthia paper. Cynthia only
// consumes instance *attributes* — CPU processing capability (GFLOPS per
// docker/core), NIC bandwidth (MB/s), and hourly price — so a faithful
// catalog with the paper's four instance families preserves every behaviour
// the scheduler depends on. Capabilities are calibrated so that m1.xlarge
// dockers are ~1.9x slower than m4.xlarge dockers, matching the paper's
// observation that stragglers inflate training time by up to 84%.
package cloud

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// InstanceType describes one catalog entry. Capacities are per docker
// (one physical core per docker, as in the paper's testbed).
type InstanceType struct {
	// Name is the provider identifier, e.g. "m4.xlarge".
	Name string
	// CPUModel documents the underlying processor.
	CPUModel string
	// GFLOPS is the effective CPU processing capability of one docker
	// (one physical core) in 10^9 floating-point operations per second,
	// as achieved by DNN training kernels (not theoretical peak).
	GFLOPS float64
	// NetMBps is the achievable NIC bandwidth in MB/s (1 MB = 1e6 bytes).
	NetMBps float64
	// PricePerHour is the on-demand price in USD per instance hour.
	PricePerHour float64
	// VCPUs is the number of vCPUs of the full instance (informational).
	VCPUs int
	// MemoryGiB is the instance memory (informational).
	MemoryGiB float64
	// Generation marks older hardware generations (m1, c3) whose dockers
	// act as stragglers in heterogeneous clusters.
	Generation int
}

// String implements fmt.Stringer.
func (t InstanceType) String() string {
	return fmt.Sprintf("%s (%.1f GFLOPS, %.0f MB/s, $%.3f/h)", t.Name, t.GFLOPS, t.NetMBps, t.PricePerHour)
}

// Catalog is a set of instance types keyed by name. It is immutable after
// construction, so all methods are safe for concurrent use without a lock.
// Spot prices are not catalog state: a Market reads them from its traces.
type Catalog struct {
	// types is sorted by name. Its capacity equals its length, so an
	// append by a caller copies instead of writing into the shared array.
	types []InstanceType
}

func validateType(t InstanceType) error {
	if t.Name == "" {
		return fmt.Errorf("cloud: instance type with empty name")
	}
	if t.GFLOPS <= 0 || t.NetMBps <= 0 || t.PricePerHour <= 0 {
		return fmt.Errorf("cloud: instance type %s has non-positive attributes", t.Name)
	}
	return nil
}

// NewCatalog returns a catalog holding the given types. Duplicate names are
// rejected.
func NewCatalog(types ...InstanceType) (*Catalog, error) {
	sorted := slices.Clone(types)
	slices.SortFunc(sorted, func(a, b InstanceType) int { return strings.Compare(a.Name, b.Name) })
	for i, t := range sorted {
		if err := validateType(t); err != nil {
			return nil, err
		}
		if i > 0 && sorted[i-1].Name == t.Name {
			return nil, fmt.Errorf("cloud: duplicate instance type %s", t.Name)
		}
	}
	return &Catalog{types: slices.Clip(sorted)}, nil
}

// Lookup returns the instance type with the given name.
func (c *Catalog) Lookup(name string) (InstanceType, error) {
	i, ok := slices.BinarySearchFunc(c.types, name, func(t InstanceType, name string) int {
		return strings.Compare(t.Name, name)
	})
	if !ok {
		return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
	}
	return c.types[i], nil
}

// Types returns all instance types sorted by name, without copying: the
// slice is shared and read-only. Callers must not write to it.
func (c *Catalog) Types() []InstanceType { return c.types }

// Len returns the number of types in the catalog.
func (c *Catalog) Len() int { return len(c.types) }

// Default instance names used throughout the reproduction.
const (
	M4XLarge = "m4.xlarge"
	M1XLarge = "m1.xlarge"
	C3XLarge = "c3.xlarge"
	R3XLarge = "r3.xlarge"
)

// DefaultCatalog returns the four-instance-family catalog used by the
// paper's testbed (Sec. 2 and Sec. 5): m4.xlarge and m1.xlarge for the
// motivation experiments, plus c3.xlarge and r3.xlarge for the evaluation.
//
// GFLOPS values are effective single-core DNN-training rates chosen to
// preserve the paper's relative speeds: the m1.xlarge (Xeon E5-2651 v2,
// pre-AVX2) is ~1.9x slower than the m4.xlarge (Xeon E5-2686 v4). NIC
// bandwidth matches the saturation plateaus the paper measures: ~90 MB/s
// on m4.xlarge (Fig. 2) and ~110 MB/s on r3.xlarge (Fig. 7). Prices are
// 2019-era us-east-1 on-demand rates.
func DefaultCatalog() *Catalog {
	return &Catalog{types: defaultTypes()}
}

// defaultTypes is the validated, name-sorted type list every
// DefaultCatalog shares; a catalog never writes its list.
var defaultTypes = sync.OnceValue(func() []InstanceType {
	c, err := NewCatalog(
		InstanceType{
			Name: M4XLarge, CPUModel: "Intel Xeon E5-2686 v4",
			GFLOPS: 3.0, NetMBps: 93.0, PricePerHour: 0.20,
			VCPUs: 4, MemoryGiB: 16, Generation: 4,
		},
		InstanceType{
			Name: M1XLarge, CPUModel: "Intel Xeon E5-2651 v2",
			GFLOPS: 1.58, NetMBps: 62.0, PricePerHour: 0.35,
			VCPUs: 4, MemoryGiB: 15, Generation: 1,
		},
		InstanceType{
			Name: C3XLarge, CPUModel: "Intel Xeon E5-2680 v2",
			GFLOPS: 2.5, NetMBps: 82.0, PricePerHour: 0.21,
			VCPUs: 4, MemoryGiB: 7.5, Generation: 3,
		},
		InstanceType{
			Name: R3XLarge, CPUModel: "Intel Xeon E5-2670 v2",
			GFLOPS: 2.65, NetMBps: 110.0, PricePerHour: 0.333,
			VCPUs: 4, MemoryGiB: 30.5, Generation: 3,
		},
	)
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return c.types
})
