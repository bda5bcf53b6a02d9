package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute on a span or instant event.
type Attr struct {
	Key, Value string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// TraceSink receives completed trace events. Sinks must be safe for
// concurrent use; the tracer calls them inline from instrumented code.
type TraceSink interface {
	// Span is called once per span, at End time.
	Span(cat, name string, start time.Time, dur time.Duration, attrs []Attr)
	// Instant is called for point-in-time events.
	Instant(cat, name string, ts time.Time, attrs []Attr)
}

// Tracer fans spans and instant events out to attached sinks. With no
// sinks attached Enabled() is false and Begin/Instant return
// immediately; instrumented code guards attribute construction behind
// Enabled() so disabled tracing costs one atomic load.
type Tracer struct {
	mu    sync.RWMutex
	sinks []TraceSink
	n     atomic.Int32
}

// NewTracer returns a tracer with no sinks.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether at least one sink is attached.
func (t *Tracer) Enabled() bool { return t != nil && t.n.Load() > 0 }

// Attach adds a sink and returns a function that detaches it again.
func (t *Tracer) Attach(s TraceSink) (detach func()) {
	if t == nil || s == nil {
		return func() {}
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.n.Store(int32(len(t.sinks)))
	t.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			for i, have := range t.sinks {
				if have == s {
					t.sinks = append(t.sinks[:i], t.sinks[i+1:]...)
					break
				}
			}
			t.n.Store(int32(len(t.sinks)))
			t.mu.Unlock()
		})
	}
}

// Span is an in-flight timed region started by Begin. A nil *Span (from
// a disabled tracer) is safe to End.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	start time.Time
	attrs []Attr
}

// Begin starts a span. Returns nil when tracing is disabled.
func (t *Tracer) Begin(cat, name string, attrs ...Attr) *Span {
	if !t.Enabled() {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, start: time.Now(), attrs: attrs}
}

// End completes the span, appending any extra attributes (e.g. result
// sizes known only at the end), and delivers it to every sink.
func (sp *Span) End(extra ...Attr) {
	if sp == nil {
		return
	}
	dur := time.Since(sp.start)
	attrs := sp.attrs
	if len(extra) > 0 {
		attrs = append(attrs, extra...)
	}
	sp.t.mu.RLock()
	for _, s := range sp.t.sinks {
		s.Span(sp.cat, sp.name, sp.start, dur, attrs)
	}
	sp.t.mu.RUnlock()
}

// Instant emits a point-in-time event.
func (t *Tracer) Instant(cat, name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	ts := time.Now()
	t.mu.RLock()
	for _, s := range t.sinks {
		s.Instant(cat, name, ts, attrs)
	}
	t.mu.RUnlock()
}

// TextSink renders instant events as lines on a writer. With a
// non-empty category filter only events of that category are printed —
// the rules manager uses this with category "rules.debug" to reproduce
// the legacy human-readable debug trace exactly (each debug line is an
// instant carrying a single "msg" attribute).
type TextSink struct {
	mu   sync.Mutex
	w    io.Writer
	only string
}

// NewTextSink returns a text sink writing to w; if onlyCat is non-empty
// every event of a different category is dropped.
func NewTextSink(w io.Writer, onlyCat string) *TextSink {
	return &TextSink{w: w, only: onlyCat}
}

// Span implements TraceSink; spans print as "name (dur) attrs".
func (ts *TextSink) Span(cat, name string, _ time.Time, dur time.Duration, attrs []Attr) {
	if ts.only != "" && cat != ts.only {
		return
	}
	ts.mu.Lock()
	fmt.Fprintf(ts.w, "%s (%s)%s\n", name, dur, formatAttrs(attrs))
	ts.mu.Unlock()
}

// Instant implements TraceSink. An event with a single "msg" attribute
// prints as the bare message (legacy debug format); anything else as
// "name attrs".
func (ts *TextSink) Instant(cat, name string, _ time.Time, attrs []Attr) {
	if ts.only != "" && cat != ts.only {
		return
	}
	ts.mu.Lock()
	if len(attrs) == 1 && attrs[0].Key == "msg" {
		fmt.Fprintln(ts.w, attrs[0].Value)
	} else {
		fmt.Fprintf(ts.w, "%s%s\n", name, formatAttrs(attrs))
	}
	ts.mu.Unlock()
}

func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	s := ""
	for _, a := range attrs {
		s += " " + a.Key + "=" + a.Value
	}
	return s
}

// CollectSink buffers structured events in memory for tests.
type CollectSink struct {
	mu    sync.Mutex
	spans []CollectedEvent
	insts []CollectedEvent
}

// CollectedEvent is one buffered span or instant.
type CollectedEvent struct {
	Cat, Name string
	Dur       time.Duration
	Attrs     []Attr
}

// Attr returns the value of the named attribute ("" if absent).
func (e CollectedEvent) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Span implements TraceSink.
func (c *CollectSink) Span(cat, name string, _ time.Time, dur time.Duration, attrs []Attr) {
	c.mu.Lock()
	c.spans = append(c.spans, CollectedEvent{Cat: cat, Name: name, Dur: dur, Attrs: append([]Attr(nil), attrs...)})
	c.mu.Unlock()
}

// Instant implements TraceSink.
func (c *CollectSink) Instant(cat, name string, _ time.Time, attrs []Attr) {
	c.mu.Lock()
	c.insts = append(c.insts, CollectedEvent{Cat: cat, Name: name, Attrs: append([]Attr(nil), attrs...)})
	c.mu.Unlock()
}

// Spans returns the buffered spans.
func (c *CollectSink) Spans() []CollectedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CollectedEvent(nil), c.spans...)
}

// Instants returns the buffered instant events.
func (c *CollectSink) Instants() []CollectedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CollectedEvent(nil), c.insts...)
}
