package eventlog

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2025, 3, 1, 10, 0, 0, 0, time.UTC)

func seeded() *Log {
	l := New()
	l.Append(Event{At: t0, Service: "backend", Type: "query", User: "alice", DurationMS: 100})
	l.Append(Event{At: t0.Add(time.Minute), Service: "backend", Type: "query", User: "bob", DurationMS: 300})
	l.Append(Event{At: t0.Add(2 * time.Minute), Service: "generation", Type: "guardrail", User: "bob",
		Fields: map[string]string{"trigger": "citation"}})
	l.Append(Event{At: t0.Add(3 * time.Minute), Service: "backend", Type: "feedback", User: "alice",
		Fields: map[string]string{"positive": "true"}})
	l.Append(Event{At: t0.Add(4 * time.Minute), Service: "ingestion", Type: "ingest"})
	return l
}

func TestSelectFilters(t *testing.T) {
	l := seeded()
	if got := len(l.Select(Query{})); got != 5 {
		t.Fatalf("all = %d", got)
	}
	if got := len(l.Select(Query{Service: "backend"})); got != 3 {
		t.Fatalf("backend = %d", got)
	}
	if got := len(l.Select(Query{Type: "query"})); got != 2 {
		t.Fatalf("queries = %d", got)
	}
	if got := len(l.Select(Query{User: "bob"})); got != 2 {
		t.Fatalf("bob = %d", got)
	}
	if got := len(l.Select(Query{Service: "backend", Type: "query", User: "alice"})); got != 1 {
		t.Fatalf("conjunction = %d", got)
	}
}

func TestTimeWindow(t *testing.T) {
	l := seeded()
	got := l.Select(Query{Since: t0.Add(time.Minute), Until: t0.Add(3 * time.Minute)})
	if len(got) != 2 {
		t.Fatalf("window = %d events", len(got))
	}
	// Until is exclusive, Since inclusive.
	if !got[0].At.Equal(t0.Add(time.Minute)) {
		t.Fatalf("first = %v", got[0].At)
	}
}

func TestCountAndAggregate(t *testing.T) {
	l := seeded()
	if got := l.Count(Query{Type: "query"}); got != 2 {
		t.Fatalf("count = %d", got)
	}
	byUser := l.Aggregate(Query{Service: "backend"}, "user")
	if byUser["alice"] != 2 || byUser["bob"] != 1 {
		t.Fatalf("byUser = %v", byUser)
	}
	byTrigger := l.Aggregate(Query{Type: "guardrail"}, "trigger")
	if byTrigger["citation"] != 1 {
		t.Fatalf("byTrigger = %v", byTrigger)
	}
	byService := l.Aggregate(Query{}, "service")
	if byService["backend"] != 3 || byService["ingestion"] != 1 {
		t.Fatalf("byService = %v", byService)
	}
}

func TestAvgDuration(t *testing.T) {
	l := seeded()
	if got := l.AvgDuration(Query{Type: "query"}); got != 200*time.Millisecond {
		t.Fatalf("avg = %v", got)
	}
	if got := l.AvgDuration(Query{Type: "ingest"}); got != 0 {
		t.Fatalf("avg with no durations = %v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := seeded()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("exported %d lines", lines)
	}
	restored := New()
	if err := restored.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 5 {
		t.Fatalf("restored %d events", restored.Len())
	}
	if got := restored.Count(Query{Type: "guardrail"}); got != 1 {
		t.Fatalf("restored guardrails = %d", got)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	l := New()
	if err := l.ReadJSONL(strings.NewReader("{bad json}\n")); err == nil {
		t.Fatal("bad line accepted")
	}
	if err := l.ReadJSONL(strings.NewReader("\n\n")); err != nil {
		t.Fatalf("blank lines rejected: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(Event{Service: "s", Type: "t"})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("lost events: %d", l.Len())
	}
}

// Property: Count always equals len(Select) for the same query, and the
// empty query matches everything.
func TestCountSelectConsistencyProperty(t *testing.T) {
	l := seeded()
	queries := []Query{
		{}, {Service: "backend"}, {Type: "query"}, {User: "alice"},
		{Service: "backend", Type: "feedback"},
		{Since: t0.Add(time.Minute)}, {Until: t0.Add(2 * time.Minute)},
	}
	for _, q := range queries {
		if l.Count(q) != len(l.Select(q)) {
			t.Fatalf("Count != len(Select) for %+v", q)
		}
	}
	if l.Count(Query{}) != l.Len() {
		t.Fatal("empty query does not match all")
	}
}

// appendN appends n events numbered from first, each carrying its number in
// Fields["n"] and a one-minute-spaced timestamp.
func appendN(l *Log, first, n int) {
	for i := first; i < first+n; i++ {
		typ := "query"
		if i%2 == 1 {
			typ = "feedback"
		}
		l.Append(Event{
			At: t0.Add(time.Duration(i) * time.Minute), Service: "backend", Type: typ,
			DurationMS: int64(i + 1), Fields: map[string]string{"n": strconv.Itoa(i)},
		})
	}
}

// TestRingRetainsMostRecent wraps the ring several times and checks that
// exactly the last Capacity events remain, in append order, for every
// reader.
func TestRingRetainsMostRecent(t *testing.T) {
	for _, total := range []int{Capacity - 1, Capacity, Capacity + 1, 2*Capacity + 37} {
		l := New()
		appendN(l, 0, total)
		kept := total
		if kept > Capacity {
			kept = Capacity
		}
		first := total - kept
		if l.Len() != kept {
			t.Fatalf("total %d: Len = %d, want %d", total, l.Len(), kept)
		}
		all := l.Select(Query{})
		if len(all) != kept {
			t.Fatalf("total %d: Select = %d events, want %d", total, len(all), kept)
		}
		for i, e := range all {
			if want := strconv.Itoa(first + i); e.Fields["n"] != want {
				t.Fatalf("total %d: event %d is #%s, want #%s", total, i, e.Fields["n"], want)
			}
		}
		queries, feedback := 0, 0
		var sum int64
		for i := first; i < total; i++ {
			if i%2 == 1 {
				feedback++
			} else {
				queries++
				sum += int64(i + 1)
			}
		}
		if got := l.Count(Query{Type: "query"}); got != queries {
			t.Fatalf("total %d: Count(query) = %d, want %d", total, got, queries)
		}
		if got := l.Aggregate(Query{}, "type"); got["query"] != queries || got["feedback"] != feedback {
			t.Fatalf("total %d: Aggregate = %v, want %d/%d", total, got, queries, feedback)
		}
		if got, want := l.AvgDuration(Query{Type: "query"}), time.Duration(sum/int64(queries))*time.Millisecond; got != want {
			t.Fatalf("total %d: AvgDuration = %v, want %v", total, got, want)
		}
		// The time window sees only retained events: the oldest survivor is
		// the first match of an unbounded Since.
		if got := l.Select(Query{Since: t0}); got[0].Fields["n"] != strconv.Itoa(first) {
			t.Fatalf("total %d: oldest retained = #%s, want #%d", total, got[0].Fields["n"], first)
		}
	}
}

// TestRingJSONLOrder exports a wrapped log and checks the lines come out
// oldest first, and that re-importing them rebuilds the same window.
func TestRingJSONLOrder(t *testing.T) {
	l := New()
	appendN(l, 0, Capacity+5)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != Capacity {
		t.Fatalf("exported %d lines, want %d", len(lines), Capacity)
	}
	if !strings.Contains(lines[0], `"n":"5"`) || !strings.Contains(lines[len(lines)-1], `"n":"`+strconv.Itoa(Capacity+4)+`"`) {
		t.Fatalf("export order: first %s last %s", lines[0], lines[len(lines)-1])
	}
	restored := New()
	appendN(restored, 0, 3) // pushed out by the import
	if err := restored.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, want := restored.Select(Query{}), l.Select(Query{})
	if len(got) != len(want) {
		t.Fatalf("restored %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Fields["n"] != want[i].Fields["n"] {
			t.Fatalf("restored event %d is #%s, want #%s", i, got[i].Fields["n"], want[i].Fields["n"])
		}
	}
}
