package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"

	"uniask/internal/sse"
)

// tailQuantile is the quantile reported as a sample set's tail: the highest
// percentile, capped at p99, that leaves at least ten samples beyond it. It
// never drops below the median, so fewer than 20 samples report the median.
func tailQuantile(n int) float64 {
	q := 0.99
	if n > 0 {
		if lim := 1 - 10/float64(n); lim < q {
			q = lim
		}
	}
	return math.Max(q, 0.5)
}

// quantile is the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps q*n that rounding nudged above a whole number from
	// stepping one rank up.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary describes one sample set: count, quartiles, and the tail at the
// quantile tailQuantile chose for the count.
type summary struct {
	N      int     `json:"n"`
	P25    float64 `json:"p25"`
	Median float64 `json:"p50"`
	P75    float64 `json:"p75"`
	TailQ  float64 `json:"tail_q"`
	Tail   float64 `json:"tail"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	q := tailQuantile(len(s))
	return summary{
		N:      len(s),
		P25:    quantile(s, 0.25),
		Median: quantile(s, 0.5),
		P75:    quantile(s, 0.75),
		TailQ:  q,
		Tail:   quantile(s, q),
		Max:    s[len(s)-1],
	}
}

// bestSlice cuts a window of the given length into whole slices of
// sliceSeconds and returns the lowest per-slice median of vals and the
// highest per-slice completion rate (completions over the slice length).
// at[i] is when vals[i] completed, in seconds since the window opened;
// completions after the window count in no slice. A window shorter than one
// slice is one slice.
func bestSlice(vals, at []float64, window float64) (median, rate float64) {
	slice := float64(sliceSeconds)
	n := int(window / slice)
	if n == 0 {
		n, slice = 1, window
	}
	slices := make([][]float64, n)
	for i, t := range at {
		if k := int(t / slice); k < n {
			slices[k] = append(slices[k], vals[i])
		}
	}
	median = math.Inf(1)
	for _, s := range slices {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		median = math.Min(median, quantile(s, 0.5))
		rate = math.Max(rate, float64(len(s))/slice)
	}
	if math.IsInf(median, 1) {
		median = 0
	}
	return median, rate
}

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tally counts attempted operations and those whose output check failed,
// keeping a count per failure reason for the run's detail record. Safe for
// concurrent use by the client goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

// record counts one attempted operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	t.reasons[err.Error()]++
}

func (t *tally) counts() (attempted, failed int, reasons map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reasons = make(map[string]int, len(t.reasons))
	for k, v := range t.reasons {
		reasons[k] = v
	}
	return t.attempted, t.failed, reasons
}

// askReply is the part of a POST /api/ask response the checks read.
type askReply struct {
	Answer    string `json:"answer"`
	Documents []struct {
		ID     string `json:"id"`
		Parent string `json:"parent"`
	} `json:"documents"`
}

// checkAsk validates a one-shot ask: status 200, a non-empty document list
// and a non-empty answer (the apology text counts: a guardrail verdict is a
// valid outcome, an empty page is not).
func checkAsk(status int, body []byte) (askReply, error) {
	var r askReply
	if status != http.StatusOK {
		return r, fmt.Errorf("ask: status %d", status)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, errors.New("ask: undecodable body")
	}
	if len(r.Documents) == 0 {
		return r, errors.New("ask: empty document list")
	}
	if strings.TrimSpace(r.Answer) == "" {
		return r, errors.New("ask: empty answer")
	}
	return r, nil
}

// checkTurn validates one SSE session turn: status 200, a citations event
// carrying documents before the terminal done event, and a done event that
// reports no error and carries an answer.
func checkTurn(status int, events []sse.Event) error {
	if status != http.StatusOK {
		return fmt.Errorf("turn: status %d", status)
	}
	cited := false
	for _, ev := range events {
		switch ev.Name {
		case "citations":
			var c struct {
				Documents []json.RawMessage `json:"documents"`
			}
			if json.Unmarshal([]byte(ev.Data), &c) != nil || len(c.Documents) == 0 {
				return errors.New("turn: citations without documents")
			}
			cited = true
		case "done":
			if !cited {
				return errors.New("turn: done before citations")
			}
			var d struct {
				Answer string `json:"answer"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal([]byte(ev.Data), &d); err != nil {
				return errors.New("turn: undecodable done event")
			}
			if d.Error != "" {
				return fmt.Errorf("turn: %s", d.Error)
			}
			if strings.TrimSpace(d.Answer) == "" {
				return errors.New("turn: empty answer")
			}
			return nil
		}
	}
	return errors.New("turn: stream ended without done")
}

// checkEdit validates that an edited page is retrievable by its new
// content: a search for the page's unique revision marker must return one
// of the page's chunks.
func checkEdit(page string, hitParents []string) error {
	for _, p := range hitParents {
		if p == page {
			return nil
		}
	}
	return fmt.Errorf("edit: page not retrievable by its new content")
}
