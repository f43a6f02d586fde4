// Package audit records every authorization decision and credential vend in
// the platform, attributed to the requesting user, compute, and session —
// the "full auditing of all individual user actions" the paper attributes to
// the Connect/Unity-Catalog integration.
package audit

import (
	"fmt"
	"sync"
	"time"

	"lakeguard/internal/telemetry"
)

// Decision is the outcome of an audited action.
type Decision string

// Decisions.
const (
	DecisionAllow Decision = "ALLOW"
	DecisionDeny  Decision = "DENY"
)

// Event is one audit record.
type Event struct {
	Time      time.Time
	User      string
	Compute   string // compute type or cluster id
	SessionID string
	Action    string // e.g. "SELECT", "VEND_CREDENTIAL", "GRANT"
	Securable string // fully qualified object name
	Decision  Decision
	Reason    string
	// TraceID joins the event to the query's telemetry span tree (empty for
	// actions performed outside a traced request).
	TraceID string
}

// String renders the event as a single log line.
func (e Event) String() string {
	return fmt.Sprintf("%s user=%s compute=%s session=%s action=%s securable=%s decision=%s reason=%q",
		e.Time.UTC().Format(time.RFC3339), e.User, e.Compute, e.SessionID, e.Action, e.Securable, e.Decision, e.Reason)
}

// DefaultCapacity is the default ring-buffer bound: generous enough that no
// test or interactive session wraps, small enough that a long-lived server
// cannot grow without bound.
const DefaultCapacity = 65536

// Log is a bounded audit log, safe for concurrent use. It retains the most
// recent Capacity events in a ring buffer (0 = unlimited); overwritten
// events are counted as dropped and surfaced as the audit.dropped metric.
type Log struct {
	mu      sync.RWMutex
	events  []Event // ring storage; oldest at index start once full
	start   int
	cap     int
	dropped int64
	// seq counts every event ever recorded (monotonic, never reset). The
	// oldest retained event therefore has sequence seq-len(events), which is
	// what lets EventsSince report exactly how many events a slow consumer
	// lost to ring overwrites instead of silently skipping them.
	seq    int64
	metric *telemetry.Counter
	clock  func() time.Time
}

// NewLog creates an empty audit log bounded at DefaultCapacity.
func NewLog() *Log { return &Log{clock: time.Now, cap: DefaultCapacity} }

// SetClock overrides the time source (tests).
func (l *Log) SetClock(clock func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock = clock
}

// SetCapacity bounds the log to the most recent n events (0 = unlimited).
// Shrinking below the current size drops the oldest events immediately.
func (l *Log) SetCapacity(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	events := l.snapshotLocked()
	if n > 0 && len(events) > n {
		over := len(events) - n
		events = events[over:]
		l.dropped += int64(over)
		l.metric.Add(int64(over))
	}
	l.events = events
	l.start = 0
	l.cap = n
}

// SetMetrics exposes the dropped-event count on a registry as the
// audit.dropped counter.
func (l *Log) SetMetrics(m *telemetry.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metric = m.Counter("audit.dropped")
	l.metric.Add(l.dropped)
}

// Dropped returns how many events the ring has overwritten.
func (l *Log) Dropped() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.dropped
}

// Record appends an event, stamping the time. When the ring is full the
// oldest event is overwritten and counted as dropped.
func (l *Log) Record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Time = l.clock()
	l.seq++
	if l.cap == 0 || len(l.events) < l.cap {
		l.events = append(l.events, e)
		return
	}
	l.events[l.start] = e
	l.start = (l.start + 1) % l.cap
	l.dropped++
	l.metric.Inc()
}

// Seq returns the total number of events ever recorded. The next event gets
// sequence Seq()+1; EventsSince(Seq()) returns nothing until then.
func (l *Log) Seq() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.seq
}

// EventsSince returns every retained event recorded after cursor position
// `from` (a value previously returned as next, or 0 for "from the
// beginning"), the new cursor position, and how many events in (from, next]
// were overwritten before they could be read. A consumer that drains with
// EventsSince and persists before advancing its cursor can prove it never
// both lost an event to the ring and failed to notice: lost is exact, not
// a global counter shared with other consumers.
func (l *Log) EventsSince(from int64) (events []Event, next int64, lost int64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	next = l.seq
	if from >= next {
		return nil, next, 0
	}
	firstRetained := l.seq - int64(len(l.events))
	if from < firstRetained {
		lost = firstRetained - from
		from = firstRetained
	}
	// Logical index i (oldest first) has sequence firstRetained+1+i and sits
	// at ring slot (start+i) mod len. Copy only the unread tail (from, next].
	skip := int(from - firstRetained)
	events = make([]Event, len(l.events)-skip)
	copied := copy(events, l.events[(l.start+skip)%len(l.events):])
	copy(events[copied:], l.events)
	return events, next, lost
}

// snapshotLocked returns retained events oldest-first. Callers hold l.mu.
func (l *Log) snapshotLocked() []Event {
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.start:]...)
	out = append(out, l.events[:l.start]...)
	return out
}

// Events returns a copy of all retained events (oldest first), optionally
// filtered.
func (l *Log) Events(filter func(Event) bool) []Event {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Event
	for _, e := range l.snapshotLocked() {
		if filter == nil || filter(e) {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of retained events matching the filter.
func (l *Log) Count(filter func(Event) bool) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, e := range l.snapshotLocked() {
		if filter == nil || filter(e) {
			n++
		}
	}
	return n
}

// ByUser returns events attributed to one user.
func (l *Log) ByUser(user string) []Event {
	return l.Events(func(e Event) bool { return e.User == user })
}

// Denials returns all DENY events.
func (l *Log) Denials() []Event {
	return l.Events(func(e Event) bool { return e.Decision == DecisionDeny })
}

// ByTrace returns events stamped with the given telemetry trace ID.
func (l *Log) ByTrace(traceID string) []Event {
	return l.Events(func(e Event) bool { return e.TraceID == traceID })
}
