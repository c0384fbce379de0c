package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Record is one finished span, the unit the collector stores and the
// JSONL sink serializes. Start is virtual time (the experiment clock).
type Record struct {
	Trace    uint64        `json:"trace"`
	Span     uint64        `json:"span"`
	Parent   uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Actor    string        `json:"actor,omitempty"`
	Note     string        `json:"note,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
}

// End is the span's end time.
func (r Record) End() time.Time { return r.Start.Add(r.Duration) }

// DefaultCollectorLimit bounds a collector that was given no explicit
// limit: a bench-scale traced run emits on the order of 10^5 spans, so
// half a million leaves ample headroom without letting a runaway full
// -scale run exhaust memory.
const DefaultCollectorLimit = 1 << 19

// Collector is a bounded in-memory span sink shared by every tracer of
// a run. When the bound is reached further records are dropped (and
// counted) rather than growing without limit — the same trade a
// production tracing agent makes.
type Collector struct {
	mu      sync.Mutex
	limit   int
	records []Record
	dropped int64
}

// NewCollector returns a collector bounded at limit records (<= 0 uses
// DefaultCollectorLimit).
func NewCollector(limit int) *Collector {
	if limit <= 0 {
		limit = DefaultCollectorLimit
	}
	return &Collector{limit: limit}
}

// add appends a record, dropping when full.
func (c *Collector) add(r Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.records) >= c.limit {
		c.dropped++
		return
	}
	c.records = append(c.records, r)
}

// Records returns a copy of everything collected, in completion order.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.records...)
}

// Len reports how many records are held.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Dropped reports how many records the bound discarded.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// WriteJSONL streams the collected records to w, one JSON object per
// line — the interchange format cmd/digruber-trace reads.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range c.Records() {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: write jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses records written by WriteJSONL. Blank lines are
// skipped; any malformed line is an error.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("trace: read jsonl line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read jsonl: %w", err)
	}
	return out, nil
}
