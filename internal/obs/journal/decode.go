package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// DecodeEvent parses one canonical JSONL line (with or without the
// trailing newline). It walks the JSON tokens directly instead of
// unmarshalling into a map so the order of the "fields" object survives:
// re-encoding a decoded event with AppendJSONL reproduces the input bytes,
// the property the WAL replay verifier depends on.
func DecodeEvent(line []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var e Event
	if err := expectDelim(dec, '{'); err != nil {
		return e, err
	}
	for dec.More() {
		key, err := stringToken(dec)
		if err != nil {
			return e, err
		}
		switch key {
		case "seq":
			if e.Seq, err = uintToken(dec); err != nil {
				return e, err
			}
		case "src":
			if e.Source, err = stringToken(dec); err != nil {
				return e, err
			}
		case "sseq":
			if e.SourceSeq, err = uintToken(dec); err != nil {
				return e, err
			}
		case "trace":
			if e.Trace, err = stringToken(dec); err != nil {
				return e, err
			}
		case "job":
			if e.Job, err = stringToken(dec); err != nil {
				return e, err
			}
		case "type":
			s, err := stringToken(dec)
			if err != nil {
				return e, err
			}
			e.Type = Type(s)
		case "at":
			n, err := numberToken(dec)
			if err != nil {
				return e, err
			}
			if e.At, err = strconv.ParseFloat(string(n), 64); err != nil {
				return e, err
			}
		case "wall_ns":
			n, err := numberToken(dec)
			if err != nil {
				return e, err
			}
			if e.WallNs, err = strconv.ParseInt(string(n), 10, 64); err != nil {
				return e, err
			}
		case "fields":
			if err := expectDelim(dec, '{'); err != nil {
				return e, err
			}
			for dec.More() {
				k, err := stringToken(dec)
				if err != nil {
					return e, err
				}
				v, err := stringToken(dec)
				if err != nil {
					return e, err
				}
				e.Fields = append(e.Fields, Field{Key: k, Value: v})
			}
			if err := expectDelim(dec, '}'); err != nil {
				return e, err
			}
		default:
			return e, fmt.Errorf("unknown key %q", key)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return e, err
	}
	return e, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want, tok)
	}
	return nil
}

func stringToken(dec *json.Decoder) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	s, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("expected string, got %v", tok)
	}
	return s, nil
}

func numberToken(dec *json.Decoder) (json.Number, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	n, ok := tok.(json.Number)
	if !ok {
		return "", fmt.Errorf("expected number, got %v", tok)
	}
	return n, nil
}

func uintToken(dec *json.Decoder) (uint64, error) {
	n, err := numberToken(dec)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(n), 10, 64)
}

// OldestSeq returns the sequence number of the oldest retained event, or
// seq+1 when the ring is empty (nothing retained means the next append's
// sequence is the oldest anyone can still read). Readers use it to detect
// that a bounded ring evicted past their cursor.
func (j *Journal) OldestSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.count == 0 {
		return j.seq + 1
	}
	return j.ring[j.start].Seq
}

// SrcSeqs returns a copy of the per-source sequence counters. Snapshots
// persist them so a restored journal keeps every source's numbering
// contiguous across a restart.
func (j *Journal) SrcSeqs() map[string]uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]uint64, len(j.srcSeq))
	for k, v := range j.srcSeq {
		out[k] = v
	}
	return out
}

// Restore rewinds the journal to a recovered state: the ring is reloaded
// from events (already carrying their original Seq/SourceSeq), the global
// counter resumes from lastSeq, and the per-source counters from srcSeqs.
// lastSeq and srcSeqs take precedence over what the events imply, because
// after a snapshot-present-but-log-missing crash the events list can be
// shorter than the counters' history. Restore bypasses the sink — the
// recovered events are already durable.
func (j *Journal) Restore(events []Event, lastSeq uint64, srcSeqs map[string]uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.start, j.count = 0, 0
	for _, e := range events {
		var slot int
		if j.count < len(j.ring) {
			slot = (j.start + j.count) % len(j.ring)
			j.count++
		} else {
			slot = j.start
			j.start = (j.start + 1) % len(j.ring)
		}
		j.ring[slot] = e
	}
	j.seq = lastSeq
	j.srcSeq = make(map[string]uint64, len(srcSeqs))
	for k, v := range srcSeqs {
		j.srcSeq[k] = v
	}
	for _, e := range events {
		if e.Seq > j.seq {
			j.seq = e.Seq
		}
		if e.SourceSeq > j.srcSeq[e.Source] {
			j.srcSeq[e.Source] = e.SourceSeq
		}
	}
}
