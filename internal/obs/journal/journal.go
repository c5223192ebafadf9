// Package journal is the control plane's flight recorder: an append-only
// structured event log with monotonic per-source sequence numbers, a
// bounded in-memory ring, an optional JSONL sink, and a deterministic
// canonical encoding. The planner, the plan service, the controller and
// the cloud provider append typed events carrying the request's
// correlation ID (TraceID), so a job's full causal history (submit → plan → segments →
// preemptions → recoveries → terminal state) can be reconstructed after
// the fact (see timeline.go).
//
// The canonical JSONL encoding is deliberately deterministic — fixed key
// order, shortest-round-trip floats, and no wall-clock timestamps in
// deterministic mode — so replaying the same scenario yields a
// byte-identical journal. That property is the precursor of a durable
// write-ahead log: a future WAL can reuse the encoding unchanged and gain
// replay/diff tooling for free.
package journal

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Type names one kind of journal event. The constants below are the
// vocabulary shared by every emitter; the timeline renderer keys its
// causal narrative off them. Each one has a reader named in the root
// TestEveryJournalTypeHasAReader, and a new one needs a row there.
type Type string

// Journal event types, grouped by emitting source.
const (
	// API edge / controller lifecycle.
	JobSubmitted Type = "job.submitted"
	JobStatus    Type = "job.status"
	JobFinished  Type = "job.finished"
	JobFailed    Type = "job.failed"

	// Planner (Algorithm 1 over the Theorem 4.1-bounded space).
	PlanSearchStart Type = "plan.search.start"
	PlanSearchDone  Type = "plan.search.done"
	PlanChosen      Type = "job.plan.chosen"

	// Plan service admission control.
	PlanRejected Type = "plan.rejected"

	// Controller provisioning and recovery state machine.
	JobProvisioned Type = "job.provisioned"
	LaunchRetry    Type = "job.launch.retry"
	// The spot market refused a spot launch because the price had risen
	// above the bid, so the controller rebuilds the cluster on-demand.
	// Old WALs hold the wire name, so it stays.
	CapacityFallback Type = "job.capacity.fallback"
	SegmentStart     Type = "segment.start"
	SegmentEnd       Type = "segment.end"
	RecoveryStart    Type = "recovery.start"
	RecoveryReplan   Type = "recovery.replanned"
	RecoveryDone     Type = "recovery.done"
	// Elastic mid-training re-planning: a spot-price change made a
	// cheaper-or-faster plan worth adopting (elastic.replan is the
	// decision, elastic.scale is the executed cluster rebuild).
	ElasticReplan Type = "elastic.replan"
	ElasticScale  Type = "elastic.scale"

	// Cloud provider instance lifecycle.
	InstanceLaunched   Type = "cloud.instance.launched"
	InstancePreempted  Type = "cloud.instance.preempted"
	InstanceTerminated Type = "cloud.instance.terminated"
)

// Field is one key/value annotation on an event. Fields are ordered —
// the encoder writes them in the order the emitter supplied — which keeps
// the canonical encoding deterministic without sorting on the hot path.
type Field struct {
	Key   string
	Value string
}

// F builds a string field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Fint builds an integer field.
func Fint(key string, v int) Field { return Field{Key: key, Value: strconv.Itoa(v)} }

// Ffloat builds a float field using the shortest representation that
// round-trips (the same contract encoding/json gives the golden corpus).
func Ffloat(key string, v float64) Field {
	return Field{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Fbool builds a boolean field.
func Fbool(key string, v bool) Field {
	return Field{Key: key, Value: strconv.FormatBool(v)}
}

// Event is one journal record. Seq is the journal-wide sequence number;
// SourceSeq increments independently per Source, so a reader can prove no
// per-source event was lost or reordered. At is the provider/simulation
// clock in seconds; WallNs is stamped only outside deterministic mode.
type Event struct {
	Seq       uint64
	Source    string
	SourceSeq uint64
	Trace     string
	Job       string
	Type      Type
	At        float64
	WallNs    int64
	Fields    []Field
}

// Journal is the bounded append-only event log. All methods are safe for
// concurrent use. Once the ring is full the oldest events are overwritten;
// attach a sink (WithSink) to retain the complete stream.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest retained event
	count   int // retained events
	seq     uint64
	srcSeq  map[string]uint64
	sink    io.Writer
	scratch []byte
	wall    func() int64 // nil in deterministic mode
}

// Option configures a Journal at construction.
type Option func(*Journal)

// WithSink streams every appended event to w in the canonical JSONL
// encoding, before ring eviction can drop it. Writes happen under the
// journal lock; hand in a buffered or in-memory writer.
func WithSink(w io.Writer) Option {
	return func(j *Journal) { j.sink = w }
}

// Deterministic disables wall-clock stamping so the canonical encoding is
// byte-identical run to run (golden-corpus mode). Event times are then
// exclusively the At values supplied by emitters.
func Deterministic() Option {
	return func(j *Journal) { j.wall = nil }
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity.
const DefaultCapacity = 4096

// New returns a journal retaining up to capacity events.
func New(capacity int, opts ...Option) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	j := &Journal{
		ring:   make([]Event, capacity),
		srcSeq: make(map[string]uint64),
		wall:   func() int64 { return time.Now().UnixNano() },
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Append assigns the event its journal and per-source sequence numbers,
// stores it, and returns the journal-wide sequence number. Steady-state
// appends (every source already seen, no sink) do not allocate.
//
// A sink write error is not returned: emitters cannot act on it, and a
// durable sink must make it sticky instead. The WAL does, so the next
// Sync fails and the barrier that needs this event durable refuses to
// acknowledge.
func (j *Journal) Append(e Event) uint64 {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	j.srcSeq[e.Source]++
	e.SourceSeq = j.srcSeq[e.Source]
	if j.wall != nil {
		e.WallNs = j.wall()
	}
	var slot int
	if j.count < len(j.ring) {
		slot = (j.start + j.count) % len(j.ring)
		j.count++
	} else {
		slot = j.start
		j.start = (j.start + 1) % len(j.ring)
	}
	j.ring[slot] = e
	if j.sink != nil {
		j.scratch = AppendJSONL(j.scratch[:0], e)
		_, _ = j.sink.Write(j.scratch) // see the doc comment
	}
	seq := e.Seq
	j.mu.Unlock()
	return seq
}

// LastSeq returns the sequence number of the most recent append (0 when
// nothing was ever appended).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Since returns the retained events with Seq > after, in append order.
func (j *Journal) Since(after uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.count; i++ {
		e := j.ring[(j.start+i)%len(j.ring)]
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out
}

// JobEvents returns the retained events tagged with the given job ID, in
// append order.
func (j *Journal) JobEvents(job string) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.count; i++ {
		e := j.ring[(j.start+i)%len(j.ring)]
		if e.Job == job {
			out = append(out, e)
		}
	}
	return out
}

const hexDigits = "0123456789abcdef"

// AppendJSONL appends the canonical one-line JSON encoding of e (with a
// trailing newline) to dst: fixed key order, shortest round-trip floats,
// empty fields omitted. This is the journal's on-the-wire and on-disk
// format.
func AppendJSONL(dst []byte, e Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"src":`...)
	dst = appendJSONString(dst, e.Source)
	dst = append(dst, `,"sseq":`...)
	dst = strconv.AppendUint(dst, e.SourceSeq, 10)
	if e.Trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = appendJSONString(dst, e.Trace)
	}
	if e.Job != "" {
		dst = append(dst, `,"job":`...)
		dst = appendJSONString(dst, e.Job)
	}
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, string(e.Type))
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendFloat(dst, e.At, 'g', -1, 64)
	if e.WallNs != 0 {
		dst = append(dst, `,"wall_ns":`...)
		dst = strconv.AppendInt(dst, e.WallNs, 10)
	}
	if len(e.Fields) > 0 {
		dst = append(dst, `,"fields":{`...)
		for i, f := range e.Fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, f.Key)
			dst = append(dst, ':')
			dst = appendJSONString(dst, f.Value)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, '}', '\n')
	return dst
}

// appendJSONString appends s as a JSON string literal, escaping the
// minimal set the grammar requires. Non-ASCII bytes pass through — the
// input is expected to be valid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// Binding is a nil-safe emitter handle carrying the correlation context —
// journal, source name, trace ID, job ID, and the clock supplying At
// values. The zero value (and any binding with a nil journal) swallows
// emissions, so call sites need no conditionals.
type Binding struct {
	J      *Journal
	Source string
	Trace  string
	Job    string
	// Clock supplies the At timestamp for Emit; nil stamps 0. Wire the
	// provider/simulation clock, not wall time, so deterministic replays
	// stay deterministic.
	Clock func() float64
}

// Bind builds a binding for the given source and correlation IDs.
func Bind(j *Journal, source, trace, job string) Binding {
	return Binding{J: j, Source: source, Trace: trace, Job: job}
}

// WithClock returns a copy of the binding using the given clock.
func (b Binding) WithClock(clock func() float64) Binding {
	b.Clock = clock
	return b
}

// WithSource returns a copy of the binding attributed to a different
// source (e.g. the controller handing its binding to the planner).
func (b Binding) WithSource(source string) Binding {
	b.Source = source
	return b
}

// Enabled reports whether emissions reach a journal.
func (b Binding) Enabled() bool { return b.J != nil }

// Emit appends an event stamped with the binding's clock (At=0 without
// one). It is a no-op on a nil journal.
func (b Binding) Emit(typ Type, fields ...Field) uint64 {
	if b.J == nil {
		return 0
	}
	at := 0.0
	if b.Clock != nil {
		at = b.Clock()
	}
	return b.J.Append(Event{
		Source: b.Source,
		Trace:  b.Trace,
		Job:    b.Job,
		Type:   typ,
		At:     at,
		Fields: fields,
	})
}
