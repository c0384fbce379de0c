package tsdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// SeriesPoint is one line of the JSONL interchange format: a series
// name plus one point. Lines are emitted sorted by series name, then
// in time order within a series, so a deterministic run writes a
// byte-identical file.
type SeriesPoint struct {
	Series string `json:"series"`
	Point
}

// WriteJSONL streams every retained point of every series to w, one
// JSON object per line, in deterministic (series, time) order.
func (r *Registry) WriteJSONL(w io.Writer) error {
	return WritePoints(w, r.Flatten(""))
}

// Flatten returns every retained point as prefixed SeriesPoint lines in
// deterministic (series, time) order. The prefix is prepended to each
// series name — experiments use it to tag multiple runs into one file.
func (r *Registry) Flatten(prefix string) []SeriesPoint {
	dumps := r.Export()
	n := 0
	for _, d := range dumps {
		n += len(d.Points)
	}
	out := make([]SeriesPoint, 0, n)
	for _, d := range dumps {
		for _, p := range d.Points {
			out = append(out, SeriesPoint{Series: prefix + d.Name, Point: p})
		}
	}
	return out
}

// WritePoints streams pre-flattened series points to w as JSONL.
func WritePoints(w io.Writer, pts []SeriesPoint) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range pts {
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("tsdb: write jsonl: %w", err)
		}
	}
	return bw.Flush()
}
