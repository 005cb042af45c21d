package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	if r.Len() != 0 {
		t.Fatalf("empty recorder Len = %d", r.Len())
	}
	for i := 0; i < 10; i++ {
		r.Notify(Event{Kind: EventFlushBegin, Unit: uint64(i + 1)})
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Unit != want {
			t.Fatalf("evs[%d].Unit = %d, want %d (oldest-first)", i, e.Unit, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRecorder(8)
	r.Notify(Event{Unit: 1})
	r.Notify(Event{Unit: 2})
	evs := r.Snapshot()
	if len(evs) != 2 || evs[0].Unit != 1 || evs[1].Unit != 2 {
		t.Fatalf("snapshot = %+v", evs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Notify(Event{Kind: EventCompactionBegin, Unit: uint64(i)})
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
}

func TestNopZeroAlloc(t *testing.T) {
	var l Listener = Nop{}
	e := Event{Kind: EventWriteStallBegin, Level: -1, Dur: time.Millisecond}
	allocs := testing.AllocsPerRun(100, func() {
		l.Notify(e)
	})
	if allocs != 0 {
		t.Fatalf("Nop Notify allocated %.1f/op, want 0", allocs)
	}
}

func TestTee(t *testing.T) {
	var a, b int
	la := Func(func(Event) { a++ })
	lb := Func(func(Event) { b++ })
	Tee(la, lb).Notify(Event{})
	if a != 1 || b != 1 {
		t.Fatalf("tee delivered a=%d b=%d", a, b)
	}
	Tee(la, nil).Notify(Event{})
	if a != 2 {
		t.Fatalf("tee with nil right: a=%d", a)
	}
	Tee(nil, lb).Notify(Event{})
	if b != 2 {
		t.Fatalf("tee with nil left: b=%d", b)
	}
	if _, ok := Tee(nil, nil).(Nop); !ok {
		t.Fatalf("Tee(nil, nil) is not Nop")
	}
}

// TestOrdered checks that an event stamped earlier than one already
// delivered is raised to that stamp, and that concurrent emitters leave
// the delivered stream in timestamp order.
func TestOrdered(t *testing.T) {
	var got []int64
	l := Ordered(Func(func(e Event) { got = append(got, e.Nanos) }))
	for _, n := range []int64{100, 50, 150, 150, 120} {
		l.Notify(Event{Nanos: n})
	}
	if fmt.Sprint(got) != "[100 100 150 150 150]" {
		t.Fatalf("delivered stamps %v, want [100 100 150 150 150]", got)
	}

	got = got[:0]
	l = Ordered(Func(func(e Event) { got = append(got, e.Nanos) }))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Notify(Event{Nanos: Monotonic()})
			}
		}()
	}
	wg.Wait()
	if len(got) != 4000 {
		t.Fatalf("delivered %d events, want 4000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("event %d stamped %d after %d", i, got[i], got[i-1])
		}
	}
}

func TestEventJSONAndString(t *testing.T) {
	e := Event{
		Kind:        EventCompactionEnd,
		Nanos:       1500000,
		Level:       2,
		Unit:        7,
		GuardLo:     "a",
		GuardHi:     "m",
		InputTables: 3, OutputTables: 2,
		InputBytes: 1000, OutputBytes: 800,
		Dur: 2 * time.Millisecond,
		Err: errors.New("boom"),
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "compaction-end" {
		t.Fatalf("kind = %v", m["kind"])
	}
	if m["level"].(float64) != 2 {
		t.Fatalf("level = %v", m["level"])
	}
	if m["err"] != "boom" {
		t.Fatalf("err = %v", m["err"])
	}
	s := e.String()
	for _, want := range []string{"compaction-end", "L2", "unit=7", "tables=3->2", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	// Level -1 must omit the level field entirely.
	raw, _ = json.Marshal(Event{Kind: EventWALRotation, Level: -1, FileNum: 9})
	if strings.Contains(string(raw), "level") {
		t.Fatalf("level -1 serialized: %s", raw)
	}
}

func TestKindNamesAndPairs(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "event(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	pairs := map[EventKind]EventKind{
		EventFlushBegin:      EventFlushEnd,
		EventCompactionBegin: EventCompactionEnd,
		EventWriteStallBegin: EventWriteStallEnd,
	}
	for begin, end := range pairs {
		if !begin.HasEnd() || begin.End() != end {
			t.Fatalf("%v pairing broken", begin)
		}
	}
	if EventResume.HasEnd() {
		t.Fatalf("resume should not pair")
	}
}

func TestMonotonic(t *testing.T) {
	a := Monotonic()
	time.Sleep(time.Millisecond)
	b := Monotonic()
	if b <= a {
		t.Fatalf("monotonic did not advance: %d -> %d", a, b)
	}
}
