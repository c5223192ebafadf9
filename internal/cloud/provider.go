package cloud

import (
	"fmt"
	"sort"
	"sync"

	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
)

// providerMetrics count instance lifecycle activity on the default
// registry, shared across all Provider values in the process.
type providerMetrics struct {
	launched    *obs.CounterVec
	terminated  *obs.Counter
	transient   *obs.Counter
	preempted   *obs.Counter
	launchDelay *obs.Histogram
}

var (
	provOnce sync.Once
	prov     providerMetrics
)

func provObs() *providerMetrics {
	provOnce.Do(func() {
		reg := obs.Default()
		prov = providerMetrics{
			launched: reg.CounterVec("cynthia_cloud_instances_launched_total",
				"instances launched, by type", "type"),
			terminated: reg.Counter("cynthia_cloud_instances_terminated_total",
				"instances terminated"),
			transient: reg.Counter("cynthia_cloud_transient_errors_total",
				"launch requests failed by injected transient errors"),
			preempted: reg.Counter("cynthia_cloud_preemptions_total",
				"instances revoked by spot-style preemption"),
			launchDelay: reg.Histogram("cynthia_cloud_launch_delay_seconds",
				"injected provisioning delay between launch and instance readiness", nil),
		}
	})
	return &prov
}

// InstanceState is the lifecycle state of a simulated instance.
type InstanceState int

// Instance lifecycle states, mirroring the EC2 state machine. StateFailed
// is a spot-style revocation: the provider reclaimed the instance; unlike
// StateTerminated the owner never asked for it.
const (
	StatePending InstanceState = iota
	StateRunning
	StateTerminated
	StateFailed
)

// Finished reports whether an instance has left the pending and running
// states for good. A finished Instance never changes again: Terminate
// and failLocked return early on anything but a live instance.
func (s InstanceState) Finished() bool { return s == StateTerminated || s == StateFailed }

// String implements fmt.Stringer.
func (s InstanceState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateTerminated:
		return "terminated"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// Instance is one provisioned machine.
type Instance struct {
	// ID is the provider-assigned identifier, e.g. "i-0000002a".
	ID string
	// Type is the catalog entry this instance was launched from.
	Type InstanceType
	// Tags are free-form key/value labels ("role" -> "worker").
	Tags map[string]string
	// State is the current lifecycle state.
	State InstanceState
	// LaunchedAt and TerminatedAt are provider-clock timestamps in
	// seconds. TerminatedAt is meaningful once State is StateTerminated
	// or StateFailed (the revocation instant).
	LaunchedAt   float64
	TerminatedAt float64
	// ReadyAt is when the instance becomes usable: LaunchedAt plus any
	// injected provisioning delay (see FaultPlan.LaunchDelayMaxSec).
	ReadyAt float64
	// Spot marks a spot-market instance; BidPerHour is the bid it was
	// launched under. The provider revokes the instance the moment the
	// market price crosses strictly above the bid, and bills it at the
	// time-varying spot price instead of the on-demand rate.
	Spot       bool
	BidPerHour float64
}

// Clock supplies the provider's notion of time in seconds. Simulations pass
// the engine clock; real deployments pass wall time (WallClockFrom).
type Clock func() float64

// Provider simulates an IaaS control plane with launch/terminate/describe
// and per-second billing. It is safe for concurrent use.
type Provider struct {
	mu        sync.Mutex
	catalog   *Catalog
	clock     Clock
	instances map[string]*Instance
	nextID    int
	fault     *faultState      // optional fault injection (see faults.go)
	market    *Market          // optional spot market (see market.go)
	jrnl      *journal.Journal // optional flight recorder (see faults.go)
}

// NewProvider returns a provider over the given catalog using the given
// clock. A nil clock defaults to a wall clock.
func NewProvider(catalog *Catalog, clock Clock) *Provider {
	if clock == nil {
		clock = WallClockFrom(0)
	}
	return &Provider{
		catalog:   catalog,
		clock:     clock,
		instances: make(map[string]*Instance),
	}
}

// SetMarket attaches (or, with nil, detaches) a spot market. With a
// market attached, LaunchSpot provisions instances at the time-varying
// spot price and schedules their revocation at the first price crossing
// above the bid.
func (p *Provider) SetMarket(m *Market) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.market = m
}

// Market returns the attached spot market, if any.
func (p *Provider) Market() *Market {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.market
}

// Launch provisions count instances of the named type at the on-demand
// price, applying the given tags to each, and returns them in running
// state. It is atomic: on any error no instances are created.
func (p *Provider) Launch(typeName string, count int, tags map[string]string) ([]*Instance, error) {
	return p.launch(typeName, count, tags, false, 0)
}

// LaunchSpot provisions count spot instances of the named type under
// the given bid. It fails with ErrSpotUnavailable when the current
// market price is above the bid, and requires an attached market with a
// trace for the type. Launched instances are revoked (spot-preempted)
// at the first future price crossing strictly above the bid.
func (p *Provider) LaunchSpot(typeName string, count int, bidPerHour float64, tags map[string]string) ([]*Instance, error) {
	if bidPerHour <= 0 {
		return nil, fmt.Errorf("cloud: spot bid %.4f must be positive", bidPerHour)
	}
	return p.launch(typeName, count, tags, true, bidPerHour)
}

func (p *Provider) launch(typeName string, count int, tags map[string]string, spot bool, bid float64) ([]*Instance, error) {
	if count <= 0 {
		return nil, fmt.Errorf("cloud: launch count %d must be positive", count)
	}
	t, err := p.catalog.Lookup(typeName)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock()
	p.applyDueLocked(now)
	if spot {
		// Market admission happens before the fault draws so a spot
		// rejection never consumes RNG state and shifts the deterministic
		// fault schedule of subsequent launches.
		if p.market == nil {
			return nil, fmt.Errorf("cloud: spot launch of %s without an attached market", typeName)
		}
		price, ok := p.market.SpotPrice(typeName, now)
		if !ok {
			return nil, fmt.Errorf("cloud: no spot trace for instance type %s", typeName)
		}
		if price > bid {
			return nil, fmt.Errorf("%w: %s at $%.4f/h, bid $%.4f/h", ErrSpotUnavailable, typeName, price, bid)
		}
	}
	delay := 0.0
	if p.fault != nil {
		var ferr error
		if delay, ferr = p.fault.onLaunch(); ferr != nil {
			provObs().transient.Inc()
			return nil, ferr
		}
	}
	if delay > 0 {
		provObs().launchDelay.Observe(delay)
	}
	out := make([]*Instance, 0, count)
	for i := 0; i < count; i++ {
		p.nextID++
		inst := &Instance{
			ID:         fmt.Sprintf("i-%08x", p.nextID),
			Type:       t,
			Tags:       copyTags(tags),
			State:      StateRunning,
			LaunchedAt: now,
			ReadyAt:    now + delay,
			Spot:       spot,
			BidPerHour: bid,
		}
		p.instances[inst.ID] = inst
		if p.fault != nil {
			if at, ok := p.fault.onInstance(now); ok {
				p.fault.PreemptAt[inst.ID] = at
			}
		}
		if spot {
			// Revocation at the first price crossing above the bid: the
			// earlier of the market crossing and any fault-injected
			// revocation wins. The crossing rides the same PreemptAt
			// machinery as FaultPlan, so recovery, snapshots, and the
			// NextPreemption oracle all see it without special cases.
			if at, ok := p.market.FirstCrossAbove(typeName, bid, now); ok {
				f := p.ensureFaultLocked()
				if cur, scheduled := f.PreemptAt[inst.ID]; !scheduled || at < cur {
					f.PreemptAt[inst.ID] = at
				}
			}
		}
		p.journalLocked(journal.InstanceLaunched, inst, now)
		out = append(out, inst)
	}
	provObs().launched.With(typeName).Add(int64(count))
	return out, nil
}

// Terminate stops the instance with the given ID. Terminating an already
// terminated — or already preempted — instance is a no-op, as with EC2.
func (p *Provider) Terminate(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	inst, ok := p.instances[id]
	if !ok {
		return fmt.Errorf("cloud: no such instance %q", id)
	}
	if inst.State != StateRunning && inst.State != StatePending {
		return nil
	}
	now := p.clock()
	inst.State = StateTerminated
	inst.TerminatedAt = now
	if p.fault != nil {
		delete(p.fault.PreemptAt, id)
	}
	provObs().terminated.Inc()
	p.journalLocked(journal.InstanceTerminated, inst, now)
	return nil
}

// List returns snapshots of all instances (any state) whose tags include
// every entry of filter, sorted by ID. A nil filter matches everything.
func (p *Provider) List(filter map[string]string) []Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked(p.clock())
	var out []Instance
	for _, inst := range p.instances {
		if matchTags(inst.Tags, filter) {
			out = append(out, snapshot(inst))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunningCount returns the number of running instances of the given type,
// or of all types if typeName is empty.
func (p *Provider) RunningCount(typeName string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked(p.clock())
	n := 0
	for _, inst := range p.instances {
		if !inst.State.Finished() && (typeName == "" || inst.Type.Name == typeName) {
			n++
		}
	}
	return n
}

// Bill returns the accumulated cost in USD across all instances, charging
// per second of running time (terminated instances are charged up to their
// termination instant, running ones up to now).
func (p *Provider) Bill() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock()
	p.applyDueLocked(now)
	total := 0.0
	for _, inst := range p.instances {
		end := now
		if inst.State.Finished() {
			end = inst.TerminatedAt
		}
		total += p.instanceCostLocked(inst, end)
	}
	return total
}

// instanceCostLocked is the USD cost of one instance from launch to
// end: the spot-price integral for spot instances, per-second on-demand
// billing otherwise. Callers hold p.mu.
func (p *Provider) instanceCostLocked(inst *Instance, end float64) float64 {
	if end < inst.LaunchedAt {
		return 0
	}
	if inst.Spot && p.market != nil {
		if c, ok := p.market.SpotCost(inst.Type.Name, inst.LaunchedAt, end); ok {
			return c
		}
	}
	return (end - inst.LaunchedAt) / 3600 * inst.Type.PricePerHour
}

// Catalog returns the provider's instance-type catalog.
func (p *Provider) Catalog() *Catalog { return p.catalog }

func copyTags(tags map[string]string) map[string]string {
	out := make(map[string]string, len(tags))
	for k, v := range tags {
		out[k] = v
	}
	return out
}

func matchTags(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

func snapshot(inst *Instance) Instance {
	cp := *inst
	cp.Tags = copyTags(inst.Tags)
	return cp
}
