// Package eventlog implements the structured service log of UniAsk's
// monitoring (§9), where the paper's dashboard "directly queries the logs of
// the various microservices". Services append typed events to a bounded
// in-memory log that keeps the most recent Capacity events (with JSONL
// export/import for durability); filtered queries and aggregations run over
// the retained window. The live dashboard reads monitor.Metrics, not this
// log.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one structured log record.
type Event struct {
	// At is the event timestamp.
	At time.Time `json:"at"`
	// Service is the emitting microservice ("backend", "retrieval",
	// "generation", "ingestion", ...).
	Service string `json:"service"`
	// Type is the event type ("query", "feedback", "guardrail", "error",
	// "ingest", ...).
	Type string `json:"type"`
	// User is the acting user, when applicable.
	User string `json:"user,omitempty"`
	// DurationMS is the operation latency in milliseconds, when applicable.
	DurationMS int64 `json:"durationMs,omitempty"`
	// Fields carries event-specific attributes.
	Fields map[string]string `json:"fields,omitempty"`
}

// Capacity is the number of most recent events a Log retains. A service
// appends an event or two per request for as long as it runs, so an
// unbounded log grows without limit; at roughly 0.4 KB an event the ring
// holds about 0.4 MB.
const Capacity = 1024

// Log is an in-memory event log holding the most recent Capacity events:
// once full, each append overwrites the oldest event. Safe for concurrent
// use.
type Log struct {
	mu sync.RWMutex
	// events is the ring storage (len ≤ Capacity); once it is full, next is
	// the slot the next append overwrites, which holds the oldest event.
	events []Event
	next   int
}

// New creates an empty log.
func New() *Log { return &Log{} }

// Append adds an event, evicting the oldest one when the log is full.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) < Capacity {
		l.events = append(l.events, e)
		return
	}
	l.events[l.next] = e
	l.next = (l.next + 1) % Capacity
}

// retained returns the retained events in append order, as the ring's two
// runs: oldest to the end of storage, then its start. The caller holds l.mu.
func (l *Log) retained() [2][]Event {
	return [2][]Event{l.events[l.next:], l.events[:l.next]}
}

// Len reports the number of retained events.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.events)
}

// Query is a filter over the log. Zero fields match everything.
type Query struct {
	// Service and Type filter by exact match when non-empty.
	Service, Type string
	// User filters by exact match when non-empty.
	User string
	// Since and Until bound the time window (zero = unbounded).
	Since, Until time.Time
}

func (q Query) matches(e Event) bool {
	if q.Service != "" && e.Service != q.Service {
		return false
	}
	if q.Type != "" && e.Type != q.Type {
		return false
	}
	if q.User != "" && e.User != q.User {
		return false
	}
	if !q.Since.IsZero() && e.At.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !e.At.Before(q.Until) {
		return false
	}
	return true
}

// Select returns the matching events in append order.
func (l *Log) Select(q Query) []Event {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Event
	for _, run := range l.retained() {
		for _, e := range run {
			if q.matches(e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// Count returns the number of matching events.
func (l *Log) Count(q Query) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, run := range l.retained() {
		for _, e := range run {
			if q.matches(e) {
				n++
			}
		}
	}
	return n
}

// Aggregate groups matching events by a field value and counts them. The
// special keys "service", "type" and "user" group by the event attributes;
// any other key groups by Fields[key] (missing values group under "").
func (l *Log) Aggregate(q Query, key string) map[string]int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[string]int)
	for _, run := range l.retained() {
		for _, e := range run {
			if !q.matches(e) {
				continue
			}
			var v string
			switch key {
			case "service":
				v = e.Service
			case "type":
				v = e.Type
			case "user":
				v = e.User
			default:
				v = e.Fields[key]
			}
			out[v]++
		}
	}
	return out
}

// AvgDuration returns the mean DurationMS of matching events (0 when none
// carry a duration).
func (l *Log) AvgDuration(q Query) time.Duration {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var total int64
	n := 0
	for _, run := range l.retained() {
		for _, e := range run {
			if q.matches(e) && e.DurationMS > 0 {
				total += e.DurationMS
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(total/int64(n)) * time.Millisecond
}

// WriteJSONL exports the retained events as JSON lines, oldest first.
func (l *Log) WriteJSONL(w io.Writer) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	enc := json.NewEncoder(w)
	for _, run := range l.retained() {
		for _, e := range run {
			if err := enc.Encode(e); err != nil {
				return fmt.Errorf("eventlog: encode: %w", err)
			}
		}
	}
	return nil
}

// ReadJSONL imports events from JSON lines, appending them to the log (so
// only the last Capacity of them, and of the events already held, remain).
func (l *Log) ReadJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		l.Append(e)
	}
	return sc.Err()
}
