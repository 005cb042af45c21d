// Package obs is the store's observability substrate: typed lifecycle
// events, a pluggable Listener, a fixed-size flight recorder, and the
// logger type used by the slow-op log. It imports only the standard
// library so every internal package (including base) can depend on it
// without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// EventKind enumerates the lifecycle notifications the engine and trees
// emit. Begin/End pairs share a Unit id so a listener can correlate them.
type EventKind uint8

const (
	// EventFlushBegin / EventFlushEnd bracket one memtable flush.
	EventFlushBegin EventKind = iota
	EventFlushEnd
	// EventCompactionBegin / EventCompactionEnd bracket one compaction
	// unit (FLSM guard group or leveled input set).
	EventCompactionBegin
	EventCompactionEnd
	// EventWALRotation marks a switch to a fresh write-ahead log.
	EventWALRotation
	// EventWALSyncStall marks a WAL fsync that exceeded the writer's
	// stall threshold.
	EventWALSyncStall
	// EventManifestRotation marks a manifest rewrite (snapshot + switch).
	EventManifestRotation
	// EventWriteStallBegin / EventWriteStallEnd bracket one episode of
	// the write path being slowed or stopped by L0 pressure or memtable
	// rotation waits.
	EventWriteStallBegin
	EventWriteStallEnd
	// EventBackgroundError reports a failed background flush/compaction
	// attempt (possibly retried afterwards).
	EventBackgroundError
	// EventReadOnly marks the transition into read-only degraded mode.
	EventReadOnly
	// EventResume marks a successful Resume from degraded mode.
	EventResume

	numEventKinds
)

var kindNames = [numEventKinds]string{
	EventFlushBegin:       "flush-begin",
	EventFlushEnd:         "flush-end",
	EventCompactionBegin:  "compaction-begin",
	EventCompactionEnd:    "compaction-end",
	EventWALRotation:      "wal-rotation",
	EventWALSyncStall:     "wal-sync-stall",
	EventManifestRotation: "manifest-rotation",
	EventWriteStallBegin:  "write-stall-begin",
	EventWriteStallEnd:    "write-stall-end",
	EventBackgroundError:  "background-error",
	EventReadOnly:         "read-only",
	EventResume:           "resume",
}

// String returns the stable wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// HasEnd reports whether the kind is a begin event with a matching end.
func (k EventKind) HasEnd() bool {
	switch k {
	case EventFlushBegin, EventCompactionBegin, EventWriteStallBegin:
		return true
	}
	return false
}

// End returns the matching end kind for a begin kind.
func (k EventKind) End() EventKind {
	switch k {
	case EventFlushBegin:
		return EventFlushEnd
	case EventCompactionBegin:
		return EventCompactionEnd
	case EventWriteStallBegin:
		return EventWriteStallEnd
	}
	return k
}

var epoch = time.Now()

// Monotonic returns nanoseconds elapsed on the monotonic clock since
// process start. Event timestamps use it so recorded sequences order
// correctly even across wall-clock adjustments.
func Monotonic() int64 { return int64(time.Since(epoch)) }

// Event is one structured lifecycle notification. It is passed by value
// so that emitting to a no-op listener allocates nothing; fields that do
// not apply to a kind are left zero.
type Event struct {
	Kind EventKind
	// Nanos is a monotonic timestamp (see Monotonic).
	Nanos int64
	// Level is the source level of a flush/compaction, -1 when N/A.
	Level int
	// Unit correlates a begin event with its end (compaction unit id,
	// flush id, or stall episode id).
	Unit uint64
	// GuardLo/GuardHi bound the guard range of an FLSM compaction unit.
	GuardLo, GuardHi string
	// InputTables/OutputTables and InputBytes/OutputBytes describe the
	// work moved by a flush or compaction.
	InputTables  int
	OutputTables int
	InputBytes   int64
	OutputBytes  int64
	// FileNum is the WAL or manifest file number for rotation events.
	FileNum uint64
	// Dur is the elapsed time reported by end, sync-stall, and stall
	// events.
	Dur time.Duration
	// Err carries the failure for background-error/read-only/flush-end
	// events.
	Err error
	// Detail is a short freeform tag: the failed operation name, the
	// stall reason ("slowdown", "stop", "memtable-wait"), etc.
	Detail string
}

// MarshalJSON renders the event with its kind name, millisecond-precision
// monotonic timestamp, and only the fields that are set.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Kind         string  `json:"kind"`
		MonoMs       float64 `json:"mono_ms"`
		Level        *int    `json:"level,omitempty"`
		Unit         uint64  `json:"unit,omitempty"`
		GuardLo      string  `json:"guard_lo,omitempty"`
		GuardHi      string  `json:"guard_hi,omitempty"`
		InputTables  int     `json:"input_tables,omitempty"`
		OutputTables int     `json:"output_tables,omitempty"`
		InputBytes   int64   `json:"input_bytes,omitempty"`
		OutputBytes  int64   `json:"output_bytes,omitempty"`
		FileNum      uint64  `json:"file_num,omitempty"`
		DurUs        int64   `json:"dur_us,omitempty"`
		Err          string  `json:"err,omitempty"`
		Detail       string  `json:"detail,omitempty"`
	}
	w := wire{
		Kind:         e.Kind.String(),
		MonoMs:       float64(e.Nanos) / 1e6,
		Unit:         e.Unit,
		GuardLo:      e.GuardLo,
		GuardHi:      e.GuardHi,
		InputTables:  e.InputTables,
		OutputTables: e.OutputTables,
		InputBytes:   e.InputBytes,
		OutputBytes:  e.OutputBytes,
		FileNum:      e.FileNum,
		DurUs:        int64(e.Dur / time.Microsecond),
		Detail:       e.Detail,
	}
	if e.Level >= 0 {
		l := e.Level
		w.Level = &l
	}
	if e.Err != nil {
		w.Err = e.Err.Error()
	}
	return json.Marshal(w)
}

// String renders a one-line human-readable form, used by the flight-
// recorder dump on degradation.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fms %-18s", float64(e.Nanos)/1e6, e.Kind.String())
	if e.Level >= 0 {
		s += fmt.Sprintf(" L%d", e.Level)
	}
	if e.Unit != 0 {
		s += fmt.Sprintf(" unit=%d", e.Unit)
	}
	if e.GuardLo != "" || e.GuardHi != "" {
		s += fmt.Sprintf(" guards=[%q,%q)", e.GuardLo, e.GuardHi)
	}
	if e.InputTables != 0 || e.OutputTables != 0 {
		s += fmt.Sprintf(" tables=%d->%d", e.InputTables, e.OutputTables)
	}
	if e.InputBytes != 0 || e.OutputBytes != 0 {
		s += fmt.Sprintf(" bytes=%d->%d", e.InputBytes, e.OutputBytes)
	}
	if e.FileNum != 0 {
		s += fmt.Sprintf(" file=%06d", e.FileNum)
	}
	if e.Dur != 0 {
		s += fmt.Sprintf(" dur=%s", e.Dur)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.Err != nil {
		s += fmt.Sprintf(" err=%q", e.Err)
	}
	return s
}

// Listener receives lifecycle events. Implementations must be safe for
// concurrent use and must not block: events are emitted inline from
// flush, compaction, and write-path goroutines.
type Listener interface {
	Notify(Event)
}

// Nop is the zero-cost default listener: Notify is inlineable and the
// event argument never escapes, so emission to it allocates nothing.
type Nop struct{}

// Notify discards the event.
func (Nop) Notify(Event) {}

// Func adapts a function to the Listener interface (test convenience).
type Func func(Event)

// Notify calls the function.
func (f Func) Notify(e Event) { f(e) }

// Tee fans one event stream out to two listeners, tolerating nil on
// either side.
func Tee(a, b Listener) Listener {
	if a == nil {
		if b == nil {
			return Nop{}
		}
		return b
	}
	if b == nil {
		return a
	}
	return tee{a, b}
}

type tee struct{ a, b Listener }

func (t tee) Notify(e Event) {
	t.a.Notify(e)
	t.b.Notify(e)
}

// Ordered returns a listener that delivers events to l one at a time, in
// non-decreasing Nanos order. Flushes, compaction units and commits emit
// concurrently, so an event stamped later can reach Notify first; Ordered
// raises such an event's stamp to the latest one delivered. The call into
// l happens under the lock, because delivery order is what it guarantees;
// listeners must not block, per the Listener contract.
func Ordered(l Listener) Listener { return &ordered{l: l} }

type ordered struct {
	mu   sync.Mutex
	last int64
	l    Listener
}

func (o *ordered) Notify(e Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e.Nanos < o.last {
		e.Nanos = o.last
	}
	o.last = e.Nanos
	o.l.Notify(e)
}

// Logger is the pluggable sink for the slow-op log and flight-recorder
// dumps. It matches the Config.Logger signature used everywhere else.
type Logger func(format string, args ...interface{})
