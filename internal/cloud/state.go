package cloud

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"time"
)

// Crash-durability support: a Provider's entire simulated world — every
// instance, the ID counter, and the fault injector
// including its RNG stream position — serializes into a ProviderState
// and restores bit-exactly. The live injector embeds its FaultState, so
// every field it persists is declared once. math/rand.Rand state is
// opaque, so instead of serializing it the injector counts its draws
// (FaultState.Draws) and a restore re-seeds from the plan's Seed and
// discards that many draws: the stream continues exactly where the
// snapshot left it.

// FaultState is the serializable state of a fault injector.
type FaultState struct {
	Plan       FaultPlan          `json:"plan"`
	Draws      int                `json:"draws"`                // RNG draws made since installation
	Consec     int                `json:"consec"`               // consecutive transient failures injected
	Launched   int                `json:"launched"`             // instances launched since installation
	PreemptAt  map[string]float64 `json:"preempt_at,omitempty"` // instance ID -> scheduled revocation time
	KillsTaken int                `json:"kills_taken"`          // KillMasterAtSec entries already consumed
}

// clone deep-copies the state. PreemptAt is never nil in the copy, so a
// restored injector can schedule into it.
func (fs FaultState) clone() FaultState {
	at := make(map[string]float64, len(fs.PreemptAt))
	maps.Copy(at, fs.PreemptAt)
	fs.PreemptAt = at
	return fs
}

// ProviderState is the serializable world of a Provider.
type ProviderState struct {
	ClockSec  float64     `json:"clock_sec"`
	NextID    int         `json:"next_id"`
	Instances []Instance  `json:"instances,omitempty"`
	Fault     *FaultState `json:"fault,omitempty"`
}

// ExportState snapshots the provider world for a durability snapshot.
// A live instance's Tags are deep-copied. A finished instance's are
// shared: nothing writes to a finished instance again, so the export is
// as read-only as the instance and costs no allocation per instance.
// frozen, when non-nil, names finished instances the caller already holds
// a copy of (a snapshot writer's frozen region); they are left out, so
// the export copies and sorts only the live instances, however long the
// history. Every other caller passes nil.
func (p *Provider) ExportState(frozen func(id string) bool) ProviderState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ProviderState{
		ClockSec: p.clock(),
		NextID:   p.nextID,
	}
	for _, inst := range p.instances {
		switch {
		case !inst.State.Finished():
			st.Instances = append(st.Instances, snapshot(inst))
		case frozen == nil || !frozen(inst.ID):
			st.Instances = append(st.Instances, *inst)
		}
	}
	slices.SortFunc(st.Instances, func(a, b Instance) int { return strings.Compare(a.ID, b.ID) })
	if p.fault != nil {
		fs := p.fault.FaultState.clone()
		st.Fault = &fs
	}
	return st
}

// RestoreState rebuilds the provider world from a snapshot. The clock is
// NOT restored here — the caller owns the clock (simulations restore
// their simulated clock; cmd/master resumes from ClockSec via
// WallClockFrom).
func (p *Provider) RestoreState(st ProviderState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID = st.NextID
	p.instances = make(map[string]*Instance, len(st.Instances))
	for _, inst := range st.Instances {
		cp := inst
		cp.Tags = copyTags(inst.Tags)
		p.instances[cp.ID] = &cp
	}
	if st.Fault == nil {
		p.fault = nil
		return
	}
	f := &faultState{FaultState: st.Fault.clone(), rng: rand.New(rand.NewSource(st.Fault.Plan.Seed))}
	// Replay the RNG stream to the snapshot's position.
	for i := 0; i < f.Draws; i++ {
		f.rng.Float64()
	}
	p.fault = f
}

// WallClockFrom is a Clock whose zero point is offset seconds in the
// past: the first reading is approximately offset and advances with wall
// time. A restarted master uses it so the provider clock resumes from
// the snapshot's ClockSec instead of rewinding to zero (which would
// re-bill every instance from genesis).
func WallClockFrom(offset float64) Clock {
	start := time.Now()
	return func() float64 { return offset + time.Since(start).Seconds() }
}
