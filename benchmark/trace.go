package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned span: a call from a file under benchmark/ into
// a public function of one layer. Spans of one statement share Stmt.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Client int    `json:"client"`
	Stmt   int    `json:"stmt"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one client's spans in memory until the run ends. Parallel
// scan workers call into the timing table provider concurrently, hence the
// lock.
type recorder struct {
	client int
	t0     time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(client int, t0 time.Time) *recorder {
	return &recorder{client: client, t0: t0}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin(parent, stmt int, class, name string) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Client: r.client, Stmt: stmt, Class: class, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// record adds a span measured elsewhere (the server side of a request).
func (r *recorder) record(parent, stmt int, class, name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Client: r.client, Stmt: stmt, Class: class, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
	r.mu.Unlock()
}

// finished returns the spans that were ended.
func (r *recorder) finished() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each span of one recorder (indexed by span ID), its
// duration minus the part of that interval its direct children cover.
// Children may overlap each other (parallel workers), so coverage is the
// union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// stmtTimes is one traced statement folded by span name: total duration and
// total self time (ns) of the spans of each name.
type stmtTimes struct {
	class string
	dur   map[string]int64
	self  map[string]int64
}

// foldStatements groups one recorder's spans by statement.
func foldStatements(spans []span) []stmtTimes {
	self := selfTimes(spans)
	byStmt := map[int]*stmtTimes{}
	var order []int
	for _, s := range spans {
		st := byStmt[s.Stmt]
		if st == nil {
			st = &stmtTimes{class: s.Class, dur: map[string]int64{}, self: map[string]int64{}}
			byStmt[s.Stmt] = st
			order = append(order, s.Stmt)
		}
		st.dur[s.Name] += s.End - s.Start
		st.self[s.Name] += self[s.ID]
	}
	out := make([]stmtTimes, 0, len(order))
	for _, id := range order {
		out = append(out, *byStmt[id])
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
