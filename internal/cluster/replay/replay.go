// Package replay makes the control plane crash-durable and provably
// replayable. A Manager owns a state directory holding a write-ahead log
// (every flight-recorder event, CRC-framed and fsynced before the
// in-memory ring can evict it) and periodic world snapshots (controller
// job table and segment state machines, master node/pod registry, cloud
// provider world, journal counters). It plugs into the stack at two
// points:
//
//   - as the journal's sink: every event the control plane emits is
//     framed into the WAL before Append returns;
//   - as the controller's Checkpointer: at each durability barrier it
//     snapshots the world (every SnapshotEvery barriers; always at admit
//     and done) and reports scheduled master kills from the fault plan.
//
// On restart, Open recovers the newest valid snapshot plus the log tail,
// and Rebuild applies them to a freshly constructed world: terminal jobs
// come back finished, queued jobs are re-enqueued, and in-flight jobs
// resume from their last barrier — including jobs that died
// mid-StatusRecovering.
//
// Two modes differ in what happens to the log tail (events after the
// snapshot, durable but not yet covered by one):
//
//   - ModeResume (cmd/master): the tail stays in the journal as history
//     and re-executed segments append new events. Honest about a real
//     crash: re-executed work is re-journaled.
//   - ModeStrict (simtest): the journal rewinds to the snapshot and the
//     tail becomes a verification queue — every re-emitted event is
//     byte-compared against the recovered tail and consumed instead of
//     re-appended. A deterministic world therefore ends with a WAL
//     byte-identical to an uninterrupted run's; any divergence is
//     reported by VerifyError.
package replay

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/obs/journal/wal"
)

// Mode selects how the recovered log tail is treated; see the package
// comment.
type Mode int

// Replay modes.
const (
	ModeResume Mode = iota
	ModeStrict
)

// Options configures a Manager.
type Options struct {
	// Mode is ModeResume (default) or ModeStrict.
	Mode Mode
	// SnapshotEvery snapshots the world every Nth segment/recovery
	// barrier (default 4). Admit and done barriers always snapshot.
	SnapshotEvery int
}

// WorldSnapshot is the serialized control-plane world at one journal
// sequence number. The journal ring itself is not duplicated here — the
// WAL has every event; the snapshot only pins the counters so sequence
// numbering stays contiguous across restarts.
type WorldSnapshot struct {
	TakenAtSeq uint64                  `json:"taken_at_seq"`
	SrcSeqs    map[string]uint64       `json:"src_seqs,omitempty"`
	Controller cluster.ControllerState `json:"controller"`
	Master     cluster.MasterState     `json:"master"`
	Provider   cloud.ProviderState     `json:"provider"`
}

// Manager is the durability engine. It implements io.Writer (the journal
// sink) and cluster.Checkpointer (the barrier callback).
type Manager struct {
	opts Options
	w    *wal.WAL

	// Recovered state, fixed at Open.
	snap    *WorldSnapshot
	events  []journal.Event // every durable WAL event, in order
	history []journal.Event // events at or before the snapshot
	tailRaw [][]byte        // raw frames after the snapshot

	// wmu guards the sink path. It is taken while the journal holds its
	// own lock (Append -> sink.Write), so nothing under wmu may call back
	// into the journal.
	wmu       sync.Mutex
	pending   [][]byte
	verifyErr error

	// mu guards the barrier path and the attached world references.
	mu       sync.Mutex
	ctl      *cluster.Controller
	master   *cluster.Master
	provider *cloud.Provider
	jrnl     *journal.Journal
	barriers int
	closed   bool
	snaps    *wal.Snapshots
	frozen   map[frozenKey]bool // the records in the snapshots' frozen region
	// jobFrozen and instFrozen ask frozen about one kind of record; bound
	// once, they are the exports' skip filters.
	jobFrozen, instFrozen func(id string) bool
	// Reused by every snapshot to collect and encode the live part.
	buf       bytes.Buffer
	enc       *json.Encoder
	liveJobs  []cluster.JobState
	liveInsts []cloud.Instance
}

// frozenKey names a frozen record by its kind tag, which prefixes the
// record's JSON, and its ID.
type frozenKey struct {
	kind byte
	id   string
}

const frozenJob, frozenInstance = 'j', 'i'

// Open recovers the state directory (creating it if empty) and returns a
// manager ready to Attach. WAL recovery truncates at the first bad
// frame; snapshot recovery falls back to the previous snapshot when the
// newest is corrupt.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 4
	}
	w, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{opts: opts, w: w, frozen: make(map[frozenKey]bool)}
	m.jobFrozen = func(id string) bool { return m.frozen[frozenKey{frozenJob, id}] }
	m.instFrozen = func(id string) bool { return m.frozen[frozenKey{frozenInstance, id}] }
	m.enc = json.NewEncoder(&m.buf)
	records, err := w.ReadAll()
	if err != nil {
		w.Close()
		return nil, err
	}
	for i, rec := range records {
		e, err := journal.DecodeEvent(rec)
		if err != nil {
			// A frame that passed its CRC but does not decode is not a
			// torn write — refuse to guess at the history.
			w.Close()
			return nil, fmt.Errorf("replay: undecodable WAL record %d: %w", i, err)
		}
		m.events = append(m.events, e)
	}
	// The snapshot writer opens no file before its first write.
	snaps, snap, err := wal.OpenSnapshots(dir)
	if err == nil && snap != nil {
		m.snap, err = assemble(snap.Frozen, snap.Live, m.frozen)
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	m.snaps = snaps
	cut := uint64(0)
	if m.snap != nil {
		cut = m.snap.TakenAtSeq
	}
	for i, e := range m.events {
		if e.Seq <= cut {
			m.history = append(m.history, e)
		} else {
			m.tailRaw = append(m.tailRaw, records[i])
		}
	}
	if m.opts.Mode == ModeStrict {
		m.pending = m.tailRaw
	}
	return m, nil
}

// assemble decodes a snapshot: the live part with the frozen records
// merged back in, jobs by Seq and instances by ID as the exports order
// them. It adds the frozen records' keys to ids.
func assemble(frozen, live []byte, ids map[frozenKey]bool) (*WorldSnapshot, error) {
	var ws WorldSnapshot
	ctl, prov := &ws.Controller, &ws.Provider
	err := json.Unmarshal(live, &ws)
	if err == nil {
		err = wal.Records(frozen, func(rec []byte) (err error) {
			switch rec[0] {
			case frozenJob:
				var js cluster.JobState
				err = json.Unmarshal(rec[1:], &js)
				ctl.Jobs, ids[frozenKey{frozenJob, js.ID}] = append(ctl.Jobs, js), true
			case frozenInstance:
				var inst cloud.Instance
				err = json.Unmarshal(rec[1:], &inst)
				prov.Instances, ids[frozenKey{frozenInstance, inst.ID}] = append(prov.Instances, inst), true
			default:
				err = fmt.Errorf("unknown frozen record kind %q", rec[0])
			}
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("replay: decoding snapshot: %w", err)
	}
	slices.SortFunc(ctl.Jobs, func(a, b cluster.JobState) int { return cmp.Compare(a.Seq, b.Seq) })
	slices.SortFunc(prov.Instances, func(a, b cloud.Instance) int { return strings.Compare(a.ID, b.ID) })
	return &ws, nil
}

// HasState reports whether the directory held anything to recover — a
// snapshot or at least one durable event.
func (m *Manager) HasState() bool { return m.snap != nil || len(m.events) > 0 }

// Snapshot returns the recovered world snapshot, or nil when the
// directory had none.
func (m *Manager) Snapshot() *WorldSnapshot { return m.snap }

// RecoveredEvents returns every durable event recovered from the WAL, in
// append order.
func (m *Manager) RecoveredEvents() []journal.Event {
	return append([]journal.Event(nil), m.events...)
}

// Write implements the journal sink: each call carries exactly one
// canonical JSONL line, already framed by the journal under its lock. In
// strict mode, re-emitted events are verified against (and consumed
// from) the recovered tail instead of being re-appended.
func (m *Manager) Write(p []byte) (int, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if len(m.pending) > 0 {
		if bytes.Equal(p, m.pending[0]) {
			m.pending = m.pending[1:]
			return len(p), nil
		}
		if m.verifyErr == nil {
			m.verifyErr = fmt.Errorf("replay: divergence at replayed event: re-emitted %q, journal holds %q",
				bytes.TrimRight(p, "\n"), bytes.TrimRight(m.pending[0], "\n"))
		}
		m.pending = nil // verification failed; stop consuming, keep logging
	}
	return m.w.Write(p)
}

// VerifyError reports the first divergence between re-executed events
// and the recovered journal tail (strict mode), or nil.
func (m *Manager) VerifyError() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.verifyErr != nil {
		return m.verifyErr
	}
	if len(m.pending) > 0 {
		return fmt.Errorf("replay: %d recovered events were never re-emitted (first: %q)",
			len(m.pending), bytes.TrimRight(m.pending[0], "\n"))
	}
	return nil
}

// Attach wires the live world the manager snapshots and rebuilds. Call
// it after constructing the journal with WithSink(manager).
func (m *Manager) Attach(ctl *cluster.Controller, master *cluster.Master, provider *cloud.Provider, jrnl *journal.Journal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctl, m.master, m.provider, m.jrnl = ctl, master, provider, jrnl
}

// Rebuild applies the recovered snapshot and log tail to the attached
// world and classifies the restored work. The journal resumes its
// numbering from the recovered state; in resume mode the tail stays as
// ring history, in strict mode the ring rewinds to the snapshot and the
// tail awaits re-emission. Terminal jobs that still held instances (a
// crash between finalize and teardown) are torn down here.
func (m *Manager) Rebuild() (resume, queued []string, err error) {
	m.mu.Lock()
	ctl, master, provider, jrnl := m.ctl, m.master, m.provider, m.jrnl
	m.mu.Unlock()
	if ctl == nil {
		return nil, nil, errors.New("replay: Rebuild before Attach")
	}
	if m.snap != nil {
		provider.RestoreState(m.snap.Provider)
		master.RestoreState(m.snap.Master)
		ctl.RestoreState(m.snap.Controller)
	}
	switch {
	case m.snap != nil && m.opts.Mode == ModeStrict:
		jrnl.Restore(m.history, m.snap.TakenAtSeq, m.snap.SrcSeqs)
	case m.snap != nil:
		jrnl.Restore(m.events, m.snap.TakenAtSeq, m.snap.SrcSeqs)
	case m.opts.Mode == ModeResume:
		jrnl.Restore(m.events, 0, nil)
	default:
		// Strict genesis: the whole log is the verification queue; the
		// journal starts empty and re-execution re-emits everything.
	}
	var leftover []string
	resume, queued, leftover = ctl.PendingJobs()
	for _, id := range leftover {
		ctl.TeardownJob(id)
	}
	return resume, queued, nil
}

// Barrier implements cluster.Checkpointer: snapshot cadence plus the
// master-kill check. Admit and done barriers always snapshot (an
// admitted job and a terminal outcome must be durable immediately);
// segment/recovery barriers snapshot every SnapshotEvery-th call;
// mid-recovery barriers never snapshot. A failed admit snapshot is
// returned, so the job is rejected rather than acknowledged; any other
// failed snapshot only counts in cynthia_replay_snapshot_failures_total.
// The kill check runs after the snapshot, so a kill scheduled at a
// snapshotting barrier dies with its own barrier already durable.
func (m *Manager) Barrier(jobID string, phase cluster.Phase) error {
	switch phase {
	case cluster.PhaseRecoveryMid, cluster.PhaseElastic:
		// kill-check only
	case cluster.PhaseAdmit:
		if err := m.SnapshotNow(); err != nil {
			return fmt.Errorf("replay: snapshot at admit barrier for %s: %w", jobID, err)
		}
	case cluster.PhaseDone:
		m.snapshotOrCount()
	default:
		m.mu.Lock()
		m.barriers++
		due := m.barriers%m.opts.SnapshotEvery == 0
		m.mu.Unlock()
		if due {
			m.snapshotOrCount()
		}
	}
	m.mu.Lock()
	provider := m.provider
	m.mu.Unlock()
	if provider != nil && provider.MasterKillDue() {
		return cluster.ErrMasterKilled
	}
	return nil
}

// replayMetrics are the durable tier's series on obs.Default().
type replayMetrics struct {
	// failures counts snapshots that failed at a barrier where the
	// failure is not fatal.
	failures *obs.Counter
	// seconds is a whole SnapshotNow: WAL sync, export, encode, write.
	seconds *obs.Histogram
	// bytes is the newest snapshot's size: frozen region plus live part.
	bytes *obs.Gauge
	// written counts the bytes snapshot writes put in slot files.
	written *obs.Counter
}

// snapshotBuckets span a snapshot of a few KB (well under a millisecond)
// to one of many MB on a slow disk.
var snapshotBuckets = []float64{.00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, 1}

var replayObs = sync.OnceValue(func() *replayMetrics {
	reg := obs.Default()
	return &replayMetrics{
		failures: reg.Counter("cynthia_replay_snapshot_failures_total",
			"barrier snapshots that failed at a segment, recovery or done barrier"),
		seconds: reg.Histogram("cynthia_replay_snapshot_seconds",
			"wall time of one world snapshot: WAL sync, export, encode and slot write", snapshotBuckets),
		bytes: reg.Gauge("cynthia_replay_snapshot_bytes",
			"size of the newest world snapshot: frozen records plus live part"),
		written: reg.Counter("cynthia_replay_snapshot_written_bytes_total",
			"bytes world snapshots wrote to their slot files"),
	}
})

// snapshotOrCount takes a snapshot at a barrier whose failure is not
// fatal, counting a failure instead of returning it.
func (m *Manager) snapshotOrCount() {
	if err := m.SnapshotNow(); err != nil {
		replayObs().failures.Inc()
	}
}

// SnapshotNow serializes the attached world and writes it as the newest
// snapshot. The WAL is synced first: a snapshot must never reference
// events the log has not durably written (the crash-consistency
// invariant recovery depends on).
//
// Terminal jobs and finished instances never change again: each is
// encoded once, into the slots' frozen region, and a snapshot neither
// exports nor encodes it again, so a barrier copies, sorts and encodes
// only the live world, however long the history. In strict mode the world is also exported whole, every
// snapshot is decoded again and compared with it, and the first
// difference is reported by VerifyError; strict mode runs on a simulated
// clock, with nothing moving the world between the two exports.
func (m *Manager) SnapshotNow() error {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("replay: closed")
	}
	if m.ctl == nil {
		return errors.New("replay: SnapshotNow before Attach")
	}
	if err := m.w.Sync(); err != nil {
		return err
	}
	ws := WorldSnapshot{
		TakenAtSeq: m.jrnl.LastSeq(),
		SrcSeqs:    m.jrnl.SrcSeqs(),
		Controller: m.ctl.ExportState(m.jobFrozen),
		Master:     m.master.ExportState(),
		Provider:   m.provider.ExportState(m.instFrozen),
	}
	live, err := m.split(&ws)
	if err != nil {
		return err
	}
	written, err := m.snaps.Write(ws.TakenAtSeq, live)
	if err != nil {
		return err
	}
	if m.opts.Mode == ModeStrict {
		whole := ws
		whole.Controller, whole.Provider = m.ctl.ExportState(nil), m.provider.ExportState(nil)
		m.verifySnapshot(&whole, live)
	}
	ro := replayObs()
	ro.seconds.Observe(time.Since(start).Seconds())
	ro.bytes.Set(float64(len(m.snaps.Frozen()) + len(live)))
	ro.written.Add(int64(written))
	return nil
}

// split freezes the terminal jobs and finished instances of ws — the
// exports left out those the frozen region holds — and returns the rest
// of ws encoded, aliasing m.buf. The region belongs to the world Rebuild
// restored, which only ever gains frozen records.
func (m *Manager) split(ws *WorldSnapshot) ([]byte, error) {
	m.liveJobs = m.liveJobs[:0]
	for i := range ws.Controller.Jobs {
		js := &ws.Controller.Jobs[i]
		if !js.Status.Terminal() {
			m.liveJobs = append(m.liveJobs, *js)
		} else if err := m.freeze(frozenKey{frozenJob, js.ID}, js); err != nil {
			return nil, err
		}
	}
	m.liveInsts = m.liveInsts[:0]
	for i := range ws.Provider.Instances {
		inst := &ws.Provider.Instances[i]
		if !inst.State.Finished() {
			m.liveInsts = append(m.liveInsts, *inst)
		} else if err := m.freeze(frozenKey{frozenInstance, inst.ID}, inst); err != nil {
			return nil, err
		}
	}
	live := *ws
	live.Controller.Jobs, live.Provider.Instances = m.liveJobs, m.liveInsts
	m.buf.Reset()
	if err := m.enc.Encode(&live); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return m.buf.Bytes()[:m.buf.Len()-1], nil // Encode ends with a newline
}

// freeze appends record v to the frozen region, tagged with its kind,
// unless the region holds it already.
func (m *Manager) freeze(key frozenKey, v any) error {
	if m.frozen[key] {
		return nil
	}
	rec, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m.snaps.Freeze(append([]byte{key.kind}, rec...))
	m.frozen[key] = true
	return nil
}

// verifySnapshot records, as the VerifyError, the first snapshot that
// does not assemble to a world encoding as json.Marshal encodes ws.
func (m *Manager) verifySnapshot(ws *WorldSnapshot, live []byte) {
	want, err := json.Marshal(ws)
	back, aerr := assemble(m.snaps.Frozen(), live, make(map[frozenKey]bool))
	got, gerr := json.Marshal(back)
	if err = errors.Join(err, aerr, gerr); err == nil && bytes.Equal(got, want) {
		return
	}
	if err == nil {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		err = fmt.Errorf("replay: snapshot at seq %d reassembles to a world that differs from the exported one at byte %d: got %q, want %q",
			ws.TakenAtSeq, at, excerpt(got, at), excerpt(want, at))
	}
	m.wmu.Lock()
	if m.verifyErr == nil {
		m.verifyErr = err
	}
	m.wmu.Unlock()
}

// excerpt returns up to 64 bytes of b around offset at.
func excerpt(b []byte, at int) []byte {
	lo, hi := max(0, at-32), min(len(b), at+32)
	return b[lo:hi]
}

// Close flushes and closes the WAL. Further journal appends through the
// sink will fail; take a final snapshot before closing on clean
// shutdown.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	return errors.Join(m.w.Close(), m.snaps.Close())
}
