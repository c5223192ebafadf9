package journal

import "io"

// WriteJSONL writes every retained event in the canonical JSONL encoding.
func (j *Journal) WriteJSONL(w io.Writer) error {
	var buf []byte
	for _, e := range j.Since(0) {
		buf = AppendJSONL(buf, e)
	}
	_, err := w.Write(buf)
	return err
}
