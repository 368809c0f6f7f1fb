package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"uniask/internal/index"
	"uniask/internal/indexer"
)

// loadResult is what one closed-loop window measured.
type loadResult struct {
	elapsed time.Duration
	// asks and ttfc are latency samples in ms of completed one-shot asks
	// and session turns; asksAt and ttfcAt are when each completed, in s
	// since the window opened.
	asks, ttfc     []float64
	asksAt, ttfcAt []float64
	// passes are ingest-pass latencies in ms, one per edit batch, from the
	// batch's due time until its pass published; passWork is the summed
	// pass time and editedDocs the pages those passes re-indexed.
	passes     []float64
	passWork   time.Duration
	editedDocs int
	// lateness is how far behind its schedule the editor applied each
	// batch, in ms.
	lateness []float64
	// mem0 and mem1 bracket the window.
	mem0, mem1 runtime.MemStats
	// cacheHitRatio is the share of the window's query-cache lookups that
	// hit.
	cacheHitRatio float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runLoad drives the workload against the stack for d: the one-shot and
// session clients start at stream position offset (a multiple of
// sessionTurns), and in workloads with edits the open-loop editor runs
// beside them. Every output check lands in t. Requests in flight at the
// deadline complete and count.
func runLoad(ctx context.Context, st *stack, in *inputs, d time.Duration, offset int, t *tally) *loadResult {
	res := &loadResult{}
	cache0 := st.eng.Searcher.Cache.Stats()
	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	start := time.Now()
	window, cancel := context.WithDeadline(ctx, start.Add(d))
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; window.Err() == nil; i++ {
			lat, _, err := st.cl.ask(ctx, in.oneShot[(offset+i)%len(in.oneShot)])
			t.record(err)
			if err == nil {
				res.asks = append(res.asks, ms(lat))
				res.asksAt = append(res.asksAt, time.Since(start).Seconds())
			}
		}
	}()
	go func() {
		defer wg.Done()
		var sid string
		for i := 0; window.Err() == nil; i++ {
			tn := in.turns[(offset+i)%len(in.turns)]
			if tn.newSession || sid == "" {
				var err error
				if sid, err = st.cl.newSession(ctx); err != nil {
					t.record(err)
					continue
				}
			}
			ttfc, _, err := st.cl.turn(ctx, sid, tn.question)
			t.record(err)
			if err == nil {
				res.ttfc = append(res.ttfc, ms(ttfc))
				res.ttfcAt = append(res.ttfcAt, time.Since(start).Seconds())
			}
		}
	}()
	if in.w.edits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runEditor(window, st, in.edits, start, res, t)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&res.mem1)
	cache1 := st.eng.Searcher.Cache.Stats()
	if lookups := cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses; lookups > 0 {
		res.cacheHitRatio = float64(cache1.Hits-cache0.Hits) / float64(lookups)
	}
	return res
}

// runEditor is the open-loop CMS: batch b is due at start + b*editInterval
// whatever the engine's progress. Every due batch is applied to the page
// source, one poller pass re-indexes all pending edits, and each batch's
// latency runs from its due time to the end of that pass. After each pass
// every edited page must be retrievable by its revision marker.
func runEditor(window context.Context, st *stack, plan *editPlan, start time.Time, res *loadResult, t *tally) {
	deadline, _ := window.Deadline()
	dueAt := func(b int) time.Time { return start.Add(time.Duration(b) * editInterval) }
	for next := 0; dueAt(next).Before(deadline); {
		if wait := time.Until(dueAt(next)); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-window.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		var (
			pending []time.Time
			edits   []edit
		)
		for now := time.Now(); !dueAt(next).After(now) && dueAt(next).Before(deadline); next++ {
			batch := plan.batch(editBatchPages)
			st.src.apply(batch)
			res.lateness = append(res.lateness, ms(time.Since(dueAt(next))))
			pending = append(pending, dueAt(next))
			edits = append(edits, batch...)
		}
		passStart := time.Now()
		n, err := st.poll()
		end := time.Now()
		res.passWork += end.Sub(passStart)
		res.editedDocs += n
		for _, d := range pending {
			res.passes = append(res.passes, ms(end.Sub(d)))
		}
		for _, e := range edits {
			if err != nil {
				t.record(err)
				continue
			}
			t.record(checkEdit(e.page, markerParents(st, e.marker)))
		}
	}
}

// markerParents returns the pages whose chunks match a revision marker in
// the text index.
func markerParents(st *stack, marker string) []string {
	hits := st.eng.Index.SearchText(marker, 5, index.TextOptions{Fields: []string{"content"}})
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = indexer.ParentOf(h.ID)
	}
	return out
}
