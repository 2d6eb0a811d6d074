package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span
// that caused it (0 for a root); Req groups the spans of one job or
// request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	id    int
	start time.Duration
	name  string
	par   int
	req   int
}

// begin starts a span named name under parent for request req.
func (t *tracer) begin(name string, parent, req int) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{}) // reserve the ID in start order
	return openSpan{t: t, id: len(t.spans), start: time.Since(t.epoch), name: name, par: parent, req: req}
}

// end closes the span and returns its ID (0 when untraced).
func (o openSpan) end() int {
	if o.t == nil {
		return 0
	}
	end := time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans[o.id-1] = span{ID: o.id, Parent: o.par, Req: o.req, Name: o.name, Start: o.start, End: end}
	o.t.mu.Unlock()
	return o.id
}

// add records a span whose times were measured elsewhere, such as the
// daemon's own job timestamps.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// all returns the finished spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span ID to its duration minus the part of its
// interval that its children cover. Overlapping children are merged
// first, so time two children share is subtracted once, and a child
// running past its parent's end is clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{lo, hi})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
		var covered, curLo, curHi time.Duration
		for i, c := range iv {
			switch {
			case i == 0:
				curLo, curHi = c[0], c[1]
			case c[0] <= curHi:
				curHi = max(curHi, c[1])
			default:
				covered += curHi - curLo
				curLo, curHi = c[0], c[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// layerTable sums span and self time by span name, largest self time
// first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// printLayerTable writes the per-layer self-time table.
func printLayerTable(w io.Writer, title string, spans []span) {
	rows := layerTable(spans)
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "\n%s (self time = span time minus time covered by child spans)\n", title)
	fmt.Fprintf(w, "  %-26s %7s %11s %11s %11s %7s\n", "span", "count", "total_ms", "self_ms", "self_ms/op", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %7d %11.2f %11.2f %11.3f %6.1f%%\n", r.Name, r.Count,
			ms(r.Total), ms(r.Self), ms(r.Self)/float64(r.Count), 100*ratio(float64(r.Self), float64(all)))
	}
}

// writeSpans saves the spans as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
