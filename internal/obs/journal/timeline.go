package journal

// timeline.go reconstructs a per-job causal narrative from the flight
// recorder: the ordered journal events for one job rendered as
// human-readable steps, plus a Chrome trace_event export (via the obs
// tracer) that shows the plan phase, every training segment, and every
// recovery cycle as spans on per-source tracks.

import (
	"fmt"
	"io"
	"strings"

	"cynthia/internal/obs"
)

// Step is one timeline entry: a journal event reduced to what a human
// debugging "why did job J cost $X and finish at T?" needs.
type Step struct {
	Seq    uint64  `json:"seq"`
	At     float64 `json:"at"`
	Source string  `json:"source"`
	Type   string  `json:"type"`
	Detail string  `json:"detail,omitempty"`
}

// Timeline is the reconstructed causal history of one job.
type Timeline struct {
	Job   string `json:"job"`
	Trace string `json:"trace,omitempty"`
	Steps []Step `json:"steps"`
}

// BuildTimeline reduces a job's journal events (in append order, as
// returned by Journal.JobEvents) to a timeline. The journal's global
// sequence numbers already encode causal order — every emitter appends
// synchronously as decisions happen — so no re-sorting is needed.
func BuildTimeline(job string, events []Event) *Timeline {
	t := &Timeline{Job: job}
	for _, e := range events {
		if t.Trace == "" && e.Trace != "" {
			t.Trace = e.Trace
		}
		t.Steps = append(t.Steps, Step{
			Seq:    e.Seq,
			At:     e.At,
			Source: e.Source,
			Type:   string(e.Type),
			Detail: detailString(e.Fields),
		})
	}
	return t
}

// detailString renders fields as "k=v k=v" in emission order.
func detailString(fields []Field) string {
	if len(fields) == 0 {
		return ""
	}
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(f.Value)
	}
	return b.String()
}

// WriteText renders the timeline as an aligned, ordered narrative — the
// format `cynthiactl timeline <job>` prints.
func (t *Timeline) WriteText(w io.Writer) error {
	header := t.Job
	if t.Trace != "" {
		header += "  trace=" + t.Trace
	}
	if _, err := fmt.Fprintf(w, "timeline for %s (%d events)\n", header, len(t.Steps)); err != nil {
		return err
	}
	for _, s := range t.Steps {
		if _, err := fmt.Fprintf(w, "%6d  t=%10.3fs  %-10s  %-26s %s\n",
			s.Seq, s.At, s.Source, s.Type, s.Detail); err != nil {
			return err
		}
	}
	return nil
}

// Trace-track process IDs for the Chrome export, one per source.
var sourcePIDs = map[string]int{
	"plan":       2,
	"controller": 3,
	"cloud":      4,
}

// spanPairs maps span-opening event types to their closers: the Chrome
// export turns each open/close pair into a Complete span on the opener's
// track; everything else becomes an instant.
var spanPairs = map[Type]map[Type]bool{
	JobSubmitted:  {JobFinished: true, JobFailed: true},
	SegmentStart:  {SegmentEnd: true},
	RecoveryStart: {RecoveryDone: true},
}

// WriteChromeTrace exports the timeline as a Chrome trace_event JSON file
// (chrome://tracing, Perfetto): job/segment/recovery spans plus instants
// for every other event, grouped into one track per source.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	tr := new(obs.Tracer)
	used := make(map[int]bool)
	pidOf := func(source string) int {
		pid, ok := sourcePIDs[source]
		if !ok {
			pid = 7
		}
		if !used[pid] {
			used[pid] = true
			name := source
			if !ok {
				name = "other"
			}
			tr.ProcessName(pid, name)
		}
		return pid
	}

	type open struct {
		closers map[Type]bool
		pid     int
		name    string
		start   float64
	}
	var opens []open
	for _, s := range t.Steps {
		pid := pidOf(s.Source)
		typ := Type(s.Type)
		// Close the innermost open span this event terminates.
		closed := false
		for i := len(opens) - 1; i >= 0; i-- {
			if opens[i].closers[typ] {
				tr.Complete(opens[i].pid, 0, "journal", opens[i].name, opens[i].start, s.At)
				opens = append(opens[:i], opens[i+1:]...)
				closed = true
				break
			}
		}
		if closers, ok := spanPairs[typ]; ok {
			opens = append(opens, open{closers: closers, pid: pid, name: s.Type, start: s.At})
			continue
		}
		if !closed {
			tr.Instant(pid, 0, "journal", s.Type+spanArgs(s), s.At)
		}
	}
	// Unterminated spans (job still running) close at the last event.
	if len(t.Steps) > 0 {
		end := t.Steps[len(t.Steps)-1].At
		for _, o := range opens {
			tr.Complete(o.pid, 0, "journal", o.name, o.start, end)
		}
	}
	return tr.WriteJSON(w)
}

// spanArgs compacts a step's detail into the instant name so trace
// viewers show it without hover metadata.
func spanArgs(s Step) string {
	if s.Detail == "" {
		return ""
	}
	return " [" + s.Detail + "]"
}
