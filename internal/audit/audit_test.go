package audit

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lakeguard/internal/telemetry"
)

func TestRecordAndFilter(t *testing.T) {
	l := NewLog()
	now := time.Unix(1000, 0)
	l.SetClock(func() time.Time { return now })
	l.Record(Event{User: "alice", Action: "SELECT", Securable: "t1", Decision: DecisionAllow})
	now = now.Add(time.Second)
	l.Record(Event{User: "bob", Action: "SELECT", Securable: "t1", Decision: DecisionDeny, Reason: "missing SELECT"})
	l.Record(Event{User: "alice", Action: "GRANT", Securable: "t2", Decision: DecisionAllow})

	if n := l.Count(nil); n != 3 {
		t.Fatalf("count = %d", n)
	}
	if got := len(l.ByUser("alice")); got != 2 {
		t.Errorf("alice events = %d", got)
	}
	denials := l.Denials()
	if len(denials) != 1 || denials[0].User != "bob" {
		t.Errorf("denials = %v", denials)
	}
	// Timestamps are stamped by the log, not the caller.
	events := l.Events(nil)
	if !events[0].Time.Equal(time.Unix(1000, 0)) || !events[1].Time.Equal(time.Unix(1001, 0)) {
		t.Error("clock stamping wrong")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Time: time.Unix(0, 0), User: "alice", Compute: "STANDARD", SessionID: "s1",
		Action: "VEND_CREDENTIAL", Securable: "main.default.t", Decision: DecisionDeny, Reason: "requires eFGAC",
	}
	s := e.String()
	for _, want := range []string{"user=alice", "compute=STANDARD", "session=s1", "action=VEND_CREDENTIAL", "decision=DENY", `reason="requires eFGAC"`} {
		if !strings.Contains(s, want) {
			t.Errorf("event string missing %q: %s", want, s)
		}
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := NewLog()
	l.Record(Event{User: "alice"})
	events := l.Events(nil)
	events[0].User = "mallory"
	if l.Events(nil)[0].User != "alice" {
		t.Error("Events aliased internal storage")
	}
}

func TestConcurrentRecording(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record(Event{User: "u", Decision: DecisionAllow})
				_ = l.Count(nil)
			}
		}()
	}
	wg.Wait()
	if n := l.Count(nil); n != 1600 {
		t.Errorf("count = %d", n)
	}
}

func TestRingWrapAround(t *testing.T) {
	l := NewLog()
	l.SetCapacity(4)
	for i := 0; i < 10; i++ {
		l.Record(Event{User: "u", Securable: string(rune('a' + i))})
	}
	events := l.Events(nil)
	if len(events) != 4 {
		t.Fatalf("retained = %d, want 4", len(events))
	}
	// Oldest-first order preserved across the wrap: g, h, i, j.
	for i, want := range []string{"g", "h", "i", "j"} {
		if events[i].Securable != want {
			t.Fatalf("events[%d].Securable = %q, want %q (order lost across wrap)", i, events[i].Securable, want)
		}
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped())
	}
	if n := l.Count(nil); n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
}

func TestRingShrinkAndUnlimited(t *testing.T) {
	l := NewLog()
	for i := 0; i < 6; i++ {
		l.Record(Event{Securable: string(rune('a' + i))})
	}
	l.SetCapacity(2) // shrink drops the 4 oldest immediately
	events := l.Events(nil)
	if len(events) != 2 || events[0].Securable != "e" || events[1].Securable != "f" {
		t.Fatalf("after shrink: %v", events)
	}
	if l.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", l.Dropped())
	}
	l.SetCapacity(0) // unlimited again
	for i := 0; i < 100; i++ {
		l.Record(Event{})
	}
	if n := l.Count(nil); n != 102 {
		t.Fatalf("unlimited count = %d, want 102", n)
	}
	if l.Dropped() != 4 {
		t.Fatalf("unlimited mode must not drop, got %d", l.Dropped())
	}
}

func TestEventsSinceCursor(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Record(Event{Securable: string(rune('a' + i))})
	}
	events, next, lost := l.EventsSince(0)
	if len(events) != 3 || lost != 0 || next != 3 {
		t.Fatalf("EventsSince(0) = %d events, next=%d, lost=%d", len(events), next, lost)
	}
	if events[0].Securable != "a" || events[2].Securable != "c" {
		t.Fatalf("wrong order: %v", events)
	}
	// Nothing new: the cursor is stable and nothing is returned.
	events, next2, lost := l.EventsSince(next)
	if len(events) != 0 || lost != 0 || next2 != next {
		t.Fatalf("idle EventsSince = %d events, next=%d, lost=%d", len(events), next2, lost)
	}
	// Incremental drain picks up exactly the new events.
	l.Record(Event{Securable: "d"})
	events, next, lost = l.EventsSince(next)
	if len(events) != 1 || events[0].Securable != "d" || lost != 0 {
		t.Fatalf("incremental = %v (lost=%d)", events, lost)
	}
	if next != l.Seq() {
		t.Fatalf("next=%d, Seq()=%d", next, l.Seq())
	}
}

func TestEventsSinceReportsOverwrittenEvents(t *testing.T) {
	l := NewLog()
	l.SetCapacity(4)
	for i := 0; i < 3; i++ {
		l.Record(Event{Securable: string(rune('a' + i))})
	}
	_, cursor, _ := l.EventsSince(0)
	// Ring wraps: 7 more events into capacity 4 overwrite everything the
	// cursor had not consumed plus three of the new ones.
	for i := 0; i < 7; i++ {
		l.Record(Event{Securable: string(rune('d' + i))})
	}
	events, next, lost := l.EventsSince(cursor)
	// Sequences 4..10 are after the cursor; only 7..10 survive in the ring.
	if lost != 3 {
		t.Fatalf("lost = %d, want 3", lost)
	}
	if len(events) != 4 || events[0].Securable != "g" || events[3].Securable != "j" {
		t.Fatalf("retained after gap: %v", events)
	}
	if next != 10 {
		t.Fatalf("next = %d, want 10", next)
	}
	// Accounting is exact: consumed + lost covers every sequence number.
	if int64(len(events))+lost != next-cursor {
		t.Fatalf("events(%d) + lost(%d) != next-cursor(%d)", len(events), lost, next-cursor)
	}
}

func TestEventsSinceCopiesTheUnreadTail(t *testing.T) {
	// Event i (1-based) is named by its sequence, so each case checks the
	// exact window (from, next] it gets back.
	cases := []struct {
		name       string
		capacity   int
		recorded   int
		from       int64
		want       []int
		wantLost   int64
		wantCursor int64
	}{
		{name: "unwrapped ring", capacity: 8, recorded: 5, from: 2, want: []int{3, 4, 5}, wantCursor: 5},
		{name: "unwrapped ring from zero", capacity: 0, recorded: 3, from: 0, want: []int{1, 2, 3}, wantCursor: 3},
		{name: "wrapped ring, tail after the wrap point", capacity: 4, recorded: 10, from: 8, want: []int{9, 10}, wantCursor: 10},
		{name: "wrapped ring, tail across the wrap point", capacity: 4, recorded: 9, from: 6, want: []int{7, 8, 9}, wantCursor: 9},
		{name: "from before the first retained event", capacity: 4, recorded: 10, from: 3, want: []int{7, 8, 9, 10}, wantLost: 3, wantCursor: 10},
		{name: "from at next", capacity: 4, recorded: 10, from: 10, wantCursor: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog()
			l.SetCapacity(tc.capacity)
			for i := 1; i <= tc.recorded; i++ {
				l.Record(Event{Securable: fmt.Sprint(i)})
			}
			events, next, lost := l.EventsSince(tc.from)
			var got []int
			for _, e := range events {
				n, _ := strconv.Atoi(e.Securable)
				got = append(got, n)
			}
			if !reflect.DeepEqual(got, tc.want) || lost != tc.wantLost || next != tc.wantCursor {
				t.Fatalf("EventsSince(%d) = %v, next=%d, lost=%d; want %v, next=%d, lost=%d",
					tc.from, got, next, lost, tc.want, tc.wantCursor, tc.wantLost)
			}
		})
	}
}

func TestEventsSinceNoSilentLossAcrossWrap(t *testing.T) {
	// Property check: under any interleaving of records and drains, the sum
	// of drained events plus reported losses equals the number recorded.
	l := NewLog()
	l.SetCapacity(8)
	var cursor, drained, lost int64
	recorded := int64(0)
	for round := 0; round < 50; round++ {
		burst := (round % 13) + 1 // sometimes exceeds capacity
		for i := 0; i < burst; i++ {
			l.Record(Event{})
			recorded++
		}
		events, next, lostNow := l.EventsSince(cursor)
		drained += int64(len(events))
		lost += lostNow
		cursor = next
	}
	if drained+lost != recorded {
		t.Fatalf("drained(%d) + lost(%d) != recorded(%d): silent loss", drained, lost, recorded)
	}
	if lost == 0 {
		t.Fatal("test never overflowed the ring; increase burst sizes")
	}
}

func TestDroppedMetric(t *testing.T) {
	l := NewLog()
	l.SetCapacity(1)
	l.Record(Event{})
	l.Record(Event{}) // one drop before metrics attached
	reg := telemetry.NewRegistry()
	l.SetMetrics(reg)
	if got := reg.Counter("audit.dropped").Value(); got != 1 {
		t.Fatalf("metric after attach = %d, want 1 (backfill)", got)
	}
	l.Record(Event{})
	if got := reg.Counter("audit.dropped").Value(); got != 2 {
		t.Fatalf("metric = %d, want 2", got)
	}
}
