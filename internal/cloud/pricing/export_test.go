package pricing

import "encoding/json"

// Marshal renders the set in the canonical form of the committed trace
// files: indented JSON with a trailing newline, so a load and marshal
// cycle of one is byte-identical.
func (ts *TraceSet) Marshal() ([]byte, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(ts, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
