package main

import (
	"errors"
	"math"
	"net/http"
	"sort"
	"testing"

	"uniask/internal/sse"
)

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0.99},
		{5, 0.5},
		{19, 0.5},
		{20, 0.5},
		{40, 0.75},
		{100, 0.9},
		{500, 0.98},
		{1000, 0.99},
		{100000, 0.99},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestTailLeavesTenBeyond pins the reporting rule: above the median the
// reported tail is the highest sample with at least ten beyond it, unless
// the p99 cap binds first.
func TestTailLeavesTenBeyond(t *testing.T) {
	for n := 21; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - 1 - i)
		}
		s := summarize(xs)
		beyond := n - 1 - int(s.Tail)
		switch {
		case beyond < 10:
			t.Fatalf("n=%d: tail %v leaves %d samples beyond it", n, s.Tail, beyond)
		case s.TailQ < 0.99 && beyond != 10:
			t.Fatalf("n=%d: tail q=%v leaves %d beyond, want exactly 10", n, s.TailQ, beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	s := summarize(xs)
	if s.N != 10 || s.Median != 5 || s.P25 != 3 || s.P75 != 8 || s.Max != 10 {
		t.Fatalf("summarize = %+v", s)
	}
	// Fewer than 20 samples report the median as the tail.
	if s.TailQ != 0.5 || s.Tail != s.Median {
		t.Fatalf("tail of 10 samples = %v at q=%v, want the median", s.Tail, s.TailQ)
	}
	if !sort.Float64sAreSorted([]float64{s.P25, s.Median, s.P75, s.Max}) {
		t.Fatalf("quartiles out of order: %+v", s)
	}
	if z := summarize(nil); z.N != 0 {
		t.Fatalf("summarize(nil) = %+v", z)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(errors.New("ask: status 503"))
	tl.record(nil)
	tl.record(errors.New("ask: status 503"))
	tl.record(errors.New("turn: done before citations"))
	attempted, failed, reasons := tl.counts()
	if attempted != 5 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", attempted, failed)
	}
	if reasons["ask: status 503"] != 2 || reasons["turn: done before citations"] != 1 {
		t.Fatalf("reasons = %v", reasons)
	}
}

func TestCheckAsk(t *testing.T) {
	ok := `{"answer":"Si procede così [doc1].","documents":[{"id":"kb00001#0","parent":"kb00001"}]}`
	cases := []struct {
		name   string
		status int
		body   string
		fails  bool
	}{
		{"valid", http.StatusOK, ok, false},
		{"guardrail apology is an answer", http.StatusOK, `{"answer":"Mi dispiace","documents":[{"parent":"kb1"}]}`, false},
		{"server error", http.StatusServiceUnavailable, ok, true},
		{"no documents", http.StatusOK, `{"answer":"x","documents":[]}`, true},
		{"empty answer", http.StatusOK, `{"answer":" ","documents":[{"parent":"kb1"}]}`, true},
		{"garbage", http.StatusOK, `{`, true},
	}
	for _, c := range cases {
		_, err := checkAsk(c.status, []byte(c.body))
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
	}
}

func TestCheckTurn(t *testing.T) {
	cit := sse.Event{Name: "citations", Data: `{"documents":[{"id":"kb1#0"}]}`}
	done := sse.Event{Name: "done", Data: `{"answer":"ok","turn":0}`}
	cases := []struct {
		name   string
		status int
		events []sse.Event
		fails  bool
	}{
		{"valid", 200, []sse.Event{cit, {Name: "token", Data: `{"text":"o"}`}, done}, false},
		{"done before citations", 200, []sse.Event{done, cit}, true},
		{"no citations", 200, []sse.Event{done}, true},
		{"empty citations", 200, []sse.Event{{Name: "citations", Data: `{"documents":[]}`}, done}, true},
		{"failed turn", 200, []sse.Event{cit, {Name: "done", Data: `{"error":"ask failed"}`}}, true},
		{"no done", 200, []sse.Event{cit}, true},
		{"status", 404, nil, true},
	}
	for _, c := range cases {
		if err := checkTurn(c.status, c.events); (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
	}
}

func TestCheckEdit(t *testing.T) {
	if err := checkEdit("kb00042", []string{"kb00007", "kb00042"}); err != nil {
		t.Fatal(err)
	}
	if err := checkEdit("kb00042", []string{"kb00007"}); err == nil {
		t.Fatal("an edit missing from the hits passed")
	}
}

func TestRevisionMarkersAreDistinctAndVowelFree(t *testing.T) {
	seen := make(map[string]bool)
	for n := 0; n < 20000; n++ {
		m := revisionMarker(n)
		if seen[m] {
			t.Fatalf("marker %q repeats at %d", m, n)
		}
		seen[m] = true
		for _, r := range m {
			switch r {
			case 'a', 'e', 'i', 'o', 'u':
				t.Fatalf("marker %q has a vowel", m)
			}
		}
	}
}

func TestBestSlice(t *testing.T) {
	// A 6 s window of 2 s slices: the middle slice is the calm one, and a
	// completion after the window counts in no slice.
	vals := []float64{9, 9, 9, 1, 2, 3, 4, 8, 8, 0}
	at := []float64{0.1, 0.5, 1.9, 2.0, 2.5, 3.0, 3.5, 4.5, 5.9, 6.5}
	median, rate := bestSlice(vals, at, 6)
	if median != 2 || rate != 2 {
		t.Fatalf("bestSlice = %v, %v; want median 2 and rate 2/s", median, rate)
	}
	// A window shorter than a slice is one slice.
	if median, rate := bestSlice([]float64{3, 1, 2}, []float64{0.1, 0.2, 0.3}, 1); median != 2 || rate != 3 {
		t.Fatalf("short window: %v, %v", median, rate)
	}
	if median, rate := bestSlice(nil, nil, 6); median != 0 || rate != 0 {
		t.Fatalf("no samples: %v, %v", median, rate)
	}
}
