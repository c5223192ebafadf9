package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteCSV emits the table as RFC 4180 CSV: a comment-ish first record
// with the id/title, the header record, then the rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.ID, t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the JSON wire form of a Table.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Table) UnmarshalJSON(data []byte) error {
	var v tableJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	t.ID, t.Title, t.Header, t.Rows, t.Notes = v.ID, v.Title, v.Header, v.Rows, v.Notes
	return nil
}

// WriteMarkdown emits the table as a GitHub-flavored markdown table with
// a heading.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	row := func(cells []string) error {
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteAll renders tables in the requested format: "text", "csv",
// "markdown", or "json" (one JSON array of tables).
func WriteAll(w io.Writer, tables []*Table, format string) error {
	switch format {
	case "markdown", "md":
		for _, t := range tables {
			if err := t.WriteMarkdown(w); err != nil {
				return err
			}
		}
		return nil
	case "", "text":
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
		return nil
	case "csv":
		for i, t := range tables {
			if i > 0 {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			if err := t.WriteCSV(w); err != nil {
				return err
			}
		}
		return nil
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	default:
		return fmt.Errorf("experiments: unknown format %q (text, csv, markdown, json)", format)
	}
}
