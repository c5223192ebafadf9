package cloud

// ClusterSpec describes the dockers of a PS-architecture training cluster.
// Each entry is one docker pinned to one physical core of the given
// instance type, as in the paper's testbed.
type ClusterSpec struct {
	Workers []InstanceType
	PS      []InstanceType
}

// Homogeneous returns a cluster of nwk workers and nps PS dockers, all of
// the same instance type.
func Homogeneous(t InstanceType, nwk, nps int) ClusterSpec {
	spec := ClusterSpec{}
	for i := 0; i < nwk; i++ {
		spec.Workers = append(spec.Workers, t)
	}
	for i := 0; i < nps; i++ {
		spec.PS = append(spec.PS, t)
	}
	return spec
}

// Heterogeneous returns the paper's straggler cluster: ⌈n/2⌉ fast workers
// and ⌊n/2⌋ slow workers (Fig. 1, Fig. 9), with PS dockers on the fast
// type.
func Heterogeneous(fast, slow InstanceType, nwk, nps int) ClusterSpec {
	spec := ClusterSpec{}
	nSlow := nwk / 2
	for i := 0; i < nwk-nSlow; i++ {
		spec.Workers = append(spec.Workers, fast)
	}
	for i := 0; i < nSlow; i++ {
		spec.Workers = append(spec.Workers, slow)
	}
	for i := 0; i < nps; i++ {
		spec.PS = append(spec.PS, fast)
	}
	return spec
}

// NumWorkers returns the worker count.
func (c ClusterSpec) NumWorkers() int { return len(c.Workers) }

// NumPS returns the PS count.
func (c ClusterSpec) NumPS() int { return len(c.PS) }

// MinWorkerGFLOPS returns the CPU capability of the slowest worker, which
// bounds BSP progress (paper Eq. 4).
func (c ClusterSpec) MinWorkerGFLOPS() float64 {
	minC := 0.0
	for i, w := range c.Workers {
		if i == 0 || w.GFLOPS < minC {
			minC = w.GFLOPS
		}
	}
	return minC
}

// TotalPSGFLOPS sums PS CPU capability (csupply in the paper's Sec. 3).
func (c ClusterSpec) TotalPSGFLOPS() float64 {
	total := 0.0
	for _, p := range c.PS {
		total += p.GFLOPS
	}
	return total
}

// TotalPSNetMBps sums PS NIC bandwidth (bsupply in the paper's Sec. 3).
func (c ClusterSpec) TotalPSNetMBps() float64 {
	total := 0.0
	for _, p := range c.PS {
		total += p.NetMBps
	}
	return total
}

// HourlyCost returns the cluster's total price per hour in USD.
func (c ClusterSpec) HourlyCost() float64 {
	total := 0.0
	for _, w := range c.Workers {
		total += w.PricePerHour
	}
	for _, p := range c.PS {
		total += p.PricePerHour
	}
	return total
}
