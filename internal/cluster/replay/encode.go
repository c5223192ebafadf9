package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// encode.go writes a WorldSnapshot byte for byte as json.Marshal does,
// at the cost of the live world only. A frozen record — a job with a
// terminal status or an instance that finished — never changes again, so
// its JSON is encoded once, kept, and appended to every later snapshot
// as is. A long-running master's snapshot is mostly such history, and
// re-encoding all of it at every barrier used to be most of a durable
// job's cost.
//
// The cached bytes are spliced in with a plain append, not as a
// json.RawMessage or json.Marshaler: encoding/json re-validates and
// compacts those, which costs more than encoding the records afresh. The
// framing around the records is therefore written here by hand and
// mirrors the struct tags of WorldSnapshot, ControllerState and
// ProviderState, omitempty included. TestSnapshotSpliceMatchesMarshal
// fails when a field is added to any of them without a splice here, and
// ModeStrict compares every payload against json.Marshal.

// frozenRecord is the cached JSON of one frozen record. gen is the
// snapshot that last contained it.
type frozenRecord struct {
	json []byte
	gen  uint64
}

// snapshotEncoder builds snapshot payloads in one reused buffer. It is
// not safe for concurrent use; the Manager calls it under its mu.
type snapshotEncoder struct {
	buf   bytes.Buffer
	enc   *json.Encoder // writes into buf
	gen   uint64
	seen  int                     // frozen records in the snapshot being encoded
	err   error                   // first encoding failure of the snapshot
	jobs  map[string]frozenRecord // terminal jobs by ID
	insts map[string]frozenRecord // finished instances by ID
}

func newSnapshotEncoder() *snapshotEncoder {
	e := &snapshotEncoder{
		jobs:  make(map[string]frozenRecord),
		insts: make(map[string]frozenRecord),
	}
	e.enc = json.NewEncoder(&e.buf)
	return e
}

// reset drops every cached record, for when the world is replaced
// wholesale (a restore) and an ID may no longer name the same record.
func (e *snapshotEncoder) reset() {
	clear(e.jobs)
	clear(e.insts)
}

// encode returns the JSON of ws, identical to json.Marshal(ws). The
// returned slice aliases the encoder's buffer and is valid until the
// next call. Afterwards the cache holds exactly the frozen records ws
// contains.
func (e *snapshotEncoder) encode(ws *WorldSnapshot) ([]byte, error) {
	e.gen++
	e.seen = 0
	e.err = nil
	e.buf.Reset()
	b := &e.buf
	b.WriteString(`{"taken_at_seq":`)
	e.uint(ws.TakenAtSeq)
	if len(ws.SrcSeqs) > 0 {
		b.WriteString(`,"src_seqs":`)
		e.value(ws.SrcSeqs)
	}

	ctl := &ws.Controller
	b.WriteString(`,"controller":{"next_job":`)
	e.int(ctl.NextJob)
	if len(ctl.Jobs) > 0 {
		b.WriteString(`,"jobs":[`)
		for i := range ctl.Jobs {
			if i > 0 {
				b.WriteByte(',')
			}
			js := &ctl.Jobs[i]
			e.record(e.jobs, js.ID, js.Status.Terminal(), js)
		}
		b.WriteByte(']')
	}
	if len(ctl.Segments) > 0 {
		b.WriteString(`,"segments":`)
		e.value(ctl.Segments)
	}
	b.WriteString(`},"master":`)
	e.value(&ws.Master)

	prov := &ws.Provider
	b.WriteString(`,"provider":{"clock_sec":`)
	e.value(&prov.ClockSec)
	b.WriteString(`,"next_id":`)
	e.int(prov.NextID)
	if len(prov.Instances) > 0 {
		b.WriteString(`,"instances":[`)
		for i := range prov.Instances {
			if i > 0 {
				b.WriteByte(',')
			}
			inst := &prov.Instances[i]
			e.record(e.insts, inst.ID, inst.State.Finished(), inst)
		}
		b.WriteByte(']')
	}
	if len(prov.Limits) > 0 {
		b.WriteString(`,"limits":`)
		e.value(prov.Limits)
	}
	if prov.Fault != nil {
		b.WriteString(`,"fault":`)
		e.value(prov.Fault)
	}
	b.WriteString(`}}`)

	if e.err != nil {
		return nil, e.err
	}
	if len(e.jobs)+len(e.insts) > e.seen {
		e.prune()
	}
	return b.Bytes(), nil
}

// record appends one job or instance. A frozen record comes from the
// cache, and is encoded into it on first sight; a live one is encoded
// afresh and never cached.
func (e *snapshotEncoder) record(cache map[string]frozenRecord, id string, frozen bool, v any) {
	if !frozen {
		e.value(v)
		return
	}
	e.seen++
	if fr, ok := cache[id]; ok {
		fr.gen = e.gen
		cache[id] = fr
		e.buf.Write(fr.json)
		return
	}
	start := e.buf.Len()
	if e.value(v); e.err == nil {
		cache[id] = frozenRecord{json: bytes.Clone(e.buf.Bytes()[start:]), gen: e.gen}
	}
}

// prune drops the cached records the snapshot just encoded did not
// contain. Every record it did contain carries the current gen, so encode
// calls prune only when the cache holds more records than it saw.
func (e *snapshotEncoder) prune() {
	for _, cache := range []map[string]frozenRecord{e.jobs, e.insts} {
		for id, fr := range cache {
			if fr.gen != e.gen {
				delete(cache, id)
			}
		}
	}
}

// value appends v as encoding/json encodes it. The Encoder writes a
// trailing newline after each value, which is cut off again. The first
// failure sticks in e.err and ends the encoding's output.
func (e *snapshotEncoder) value(v any) {
	if e.err != nil {
		return
	}
	if err := e.enc.Encode(v); err != nil {
		e.err = fmt.Errorf("replay: %w", err)
		return
	}
	e.buf.Truncate(e.buf.Len() - 1)
}

// uint and int append integers, formatted as encoding/json formats them.
func (e *snapshotEncoder) uint(v uint64) {
	e.buf.Write(strconv.AppendUint(e.buf.AvailableBuffer(), v, 10))
}

func (e *snapshotEncoder) int(v int) {
	e.buf.Write(strconv.AppendInt(e.buf.AvailableBuffer(), int64(v), 10))
}
