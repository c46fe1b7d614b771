package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Field is one structured key/value of an event.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// EventLogger writes structured events as JSON lines: one object per event
// with "ts" and "event" keys plus the logger's base fields and the event's
// own. It replaces ad-hoc log.Printf in the fleet binaries so chaos runs are
// machine-greppable (by subtask, attempt, worker). A nil *EventLogger is
// valid everywhere and discards events.
type EventLogger struct {
	mu   *sync.Mutex
	w    io.Writer
	base []Field
	// now is stubbed in tests; production uses time.Now.
	now func() time.Time
}

// NewEventLogger creates a logger writing to w with the given base fields
// attached to every event.
func NewEventLogger(w io.Writer, base ...Field) *EventLogger {
	return &EventLogger{mu: &sync.Mutex{}, w: w, base: base, now: time.Now}
}

// Log emits one event line. Marshal failures degrade the field to its
// fmt-rendered string rather than dropping the event.
func (l *EventLogger) Log(event string, fields ...Field) {
	if l == nil || l.w == nil {
		return
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"ts":`...)
	ts, _ := json.Marshal(l.now().Format(time.RFC3339Nano))
	buf = append(buf, ts...)
	buf = append(buf, `,"event":`...)
	ev, _ := json.Marshal(event)
	buf = append(buf, ev...)
	for _, f := range append(l.base, fields...) {
		key, err := json.Marshal(f.Key)
		if err != nil {
			continue
		}
		val, err := json.Marshal(f.Value)
		if err != nil {
			val, _ = json.Marshal(asString(f.Value))
		}
		buf = append(buf, ',')
		buf = append(buf, key...)
		buf = append(buf, ':')
		buf = append(buf, val...)
	}
	buf = append(buf, '}', '\n')
	l.mu.Lock()
	l.w.Write(buf)
	l.mu.Unlock()
}

func asString(v any) string {
	type stringer interface{ String() string }
	switch x := v.(type) {
	case error:
		return x.Error()
	case stringer:
		return x.String()
	default:
		return "?"
	}
}
