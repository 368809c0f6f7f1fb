// Command perfbench is UniAsk's benchmark: it serves the real server
// handler over loopback HTTP, drives one named workload against it from
// in-process closed-loop clients (plus an open-loop CMS editor on
// ingest-live), checks every output, and prints the end-to-end metrics; with
// -trace 1 it instead replays the workload stream through each layer's
// exported functions and prints per-layer metrics. See README.md.
//
//	go run . -workload cold-mix -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result object; the line before it
// is the run's detail record (machine, commit, per-run sample summaries).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// errOut receives progress and diagnostics; standard output carries only
// the detail record and the result.
var errOut io.Writer = os.Stderr

var processStart = time.Now()

// progress logs a step with the time since the process started.
func progress(format string, args ...any) {
	fmt.Fprintf(errOut, "perfbench %6.1fs: %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

// setupRepeats is how many times an untraced run sets up from scratch;
// setup_s is their median and the last one serves the workload.
const setupRepeats = 3

// resultsDir is where runs write raw samples and span dumps, relative to
// the checkout.
const resultsDir = ".bench_build/results"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the run's record beside the result: where and on what it ran,
// and the samples behind each metric.
type detail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Samples  map[string]summary `json:"samples"`
	Extra    map[string]any     `json:"extra,omitempty"`
	Failures map[string]int     `json:"failures,omitempty"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "cold-mix", "workload: cold-mix, faq-hot or ingest-live")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("seconds must be at least 1")
	}
	ctx := context.Background()
	progress("%s seed %d: generating inputs", w.name, o.seed)
	in := newInputs(w, o.seed)
	d := &detail{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: probeEnvironment(), Samples: make(map[string]summary), Extra: make(map[string]any),
	}
	t := &tally{}
	var (
		metrics map[string]metric
		correct bool
		err     error
	)
	if o.trace {
		metrics, correct, err = runTraced(ctx, o, in, d, t)
	} else {
		metrics, correct, err = runEndToEnd(ctx, o, in, d, t)
	}
	if err != nil {
		return err
	}
	attempted, failed, reasons := t.counts()
	if len(reasons) > 0 {
		d.Failures = reasons
	}
	if attempted == 0 {
		return errors.New("no operation was attempted")
	}
	res := result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"perfbench": d}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runEndToEnd sets up setupRepeats times, checks ranking quality on the
// last stack, then measures the workload for o.seconds.
func runEndToEnd(ctx context.Context, o options, in *inputs, d *detail, t *tally) (map[string]metric, bool, error) {
	var (
		st            *stack
		setups, loads []float64
		mrr           float64
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var before func(*stack) error
		if i == setupRepeats-1 {
			before = func(s *stack) error {
				mrr = checkMRR(ctx, s, in, t)
				return nil
			}
		}
		progress("setup %d/%d", i+1, setupRepeats)
		s, times, err := startStack(ctx, in, before)
		if err != nil {
			return nil, false, fmt.Errorf("setup: %w", err)
		}
		st = s
		setups = append(setups, times.total.Seconds())
		loads = append(loads, ms(times.load))
	}
	defer st.close()

	progress("measuring %ds", o.seconds)
	res := runLoad(ctx, st, in, time.Duration(o.seconds)*time.Second, 0, t)
	// The live heap is read with the store at rest: a merge still running
	// would hold its half-built segment and make the figure depend on when
	// the window happened to close.
	drain(st.eng)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	window := float64(o.seconds)
	asks, ttfc := summarize(res.asks), summarize(res.ttfc)
	askP50, askRate := bestSlice(res.asks, res.asksAt, window)
	ttfcP50, turnRate := bestSlice(res.ttfc, res.ttfcAt, window)
	setup := summarize(setups)
	d.Samples["setup_s"] = setup
	d.Samples["ask_ms"] = asks
	d.Samples["ttfc_ms"] = ttfc
	d.Extra["window_ask_qps"] = float64(asks.N) / res.elapsed.Seconds()
	d.Extra["window_turns_per_s"] = float64(ttfc.N) / res.elapsed.Seconds()
	m := map[string]metric{
		"setup_s":     {setup.Median, "s"},
		"ask_p50_ms":  {askP50, "ms"},
		"ask_p99_ms":  {asks.Tail, "ms"},
		"ask_qps":     {askRate, "1/s"},
		"ttfc_p50_ms": {ttfcP50, "ms"},
		"ttfc_p99_ms": {ttfc.Tail, "ms"},
		"turns_per_s": {turnRate, "1/s"},
		"heap_mb":     {float64(mem.HeapAlloc) / (1 << 20), "MB"},
		"mrr":         {mrr, "ratio"},
	}
	// Workloads without CMS edits have one ingest pass per setup: the load
	// of the whole corpus.
	passes, docsPerSec := loads, float64(corpusDocs)/(summarize(loads).Median/1000)
	if in.w.edits {
		passes, docsPerSec = res.passes, float64(res.editedDocs)/res.passWork.Seconds()
		d.Samples["editor_lateness_ms"] = summarize(res.lateness)
	}
	pass := summarize(passes)
	d.Samples["ingest_pass_ms"] = pass
	m["ingest_docs_per_s"] = metric{docsPerSec, "1/s"}
	m["ingest_pass_p99_ms"] = metric{pass.Tail, "ms"}

	if err := writeJSON(o, "samples", map[string][]float64{
		"ask_ms": res.asks, "ask_at_s": res.asksAt, "ttfc_ms": res.ttfc, "ttfc_at_s": res.ttfcAt,
		"ingest_pass_ms": passes, "setup_s": setups,
	}); err != nil {
		fmt.Fprintln(errOut, "perfbench: samples not written:", err)
	}

	final := st.indexStats()
	d.Extra["index_segments"] = final.Segments
	d.Extra["index_backlog"] = final.Backlog
	d.Extra["index_tombstones"] = final.Tombstones
	d.Extra["cache_hit_ratio"] = res.cacheHitRatio
	return m, asks.N > 0 && ttfc.N > 0 && mrr > 0, nil
}

// checkMRR asks the check set through the server and scores MRR@10 of
// each answer's document list against the ground truth, then empties the
// query cache so the check leaves no trace in the measured run.
func checkMRR(ctx context.Context, st *stack, in *inputs, t *tally) float64 {
	var sum float64
	for _, q := range in.check {
		_, r, err := st.cl.ask(ctx, q.Text)
		t.record(err)
		if err != nil {
			continue
		}
		relevant := make(map[string]bool, len(q.Relevant))
		for _, id := range q.Relevant {
			relevant[id] = true
		}
		seen := make(map[string]bool)
		rank := 0
		for _, doc := range r.Documents {
			if seen[doc.Parent] {
				continue
			}
			seen[doc.Parent] = true
			if rank++; rank > 10 {
				break
			}
			if relevant[doc.Parent] {
				sum += 1 / float64(rank)
				break
			}
		}
	}
	st.eng.Searcher.Cache.Purge()
	return sum / float64(len(in.check))
}

// runTraced sets up once, measures allocation and GC under the workload's
// load for half the time, then replays the workload stream layer by layer
// for the other half, and finishes with the server overhead pairs and, for
// workloads without edits, a replay of ingest passes.
func runTraced(ctx context.Context, o options, in *inputs, d *detail, t *tally) (map[string]metric, bool, error) {
	st, _, err := startStack(ctx, in, nil)
	if err != nil {
		return nil, false, fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	half := time.Duration(o.seconds) * time.Second / 2

	progress("load phase %v", half)
	load := runLoad(ctx, st, in, half, 0, t)
	ops := float64(len(load.asks) + len(load.ttfc))
	if ops == 0 {
		return nil, false, errors.New("load phase completed no operation")
	}

	progress("replay %v", half)
	rp := newReplayer(st)
	oneShots, err := rp.run(ctx, in, half, t)
	if err != nil {
		return nil, false, err
	}
	if len(oneShots) > 100 {
		oneShots = oneShots[len(oneShots)-100:]
	}
	viaHTTP, viaCore, err := serverOverhead(ctx, st, oneShots, t)
	if err != nil {
		return nil, false, err
	}
	if !in.w.edits {
		for i := 0; i < tracedIngestPasses; i++ {
			if err := rp.ingestBatch(ctx, in.edits.batch(editBatchPages), t); err != nil {
				return nil, false, err
			}
		}
	}

	totals := rp.rec.totals()
	perAsk := func(name string) float64 {
		var total time.Duration
		if lt := totals[name]; lt != nil {
			total = lt.Total
		}
		return us(total) / float64(rp.asks)
	}
	attributed := 0.0
	for _, name := range []string{"guardrails.check_question", "llm.rewrite", "search.search", "generation.generate", "guardrails.check_answer"} {
		attributed += perAsk(name)
	}
	coreAsk := us(rp.askTime) / float64(rp.asks)
	spansPerAsk := float64(len(rp.rec.spans)) / float64(rp.asks)
	m := map[string]metric{
		"guardrails.check_question_us": {perAsk("guardrails.check_question"), "us"},
		"guardrails.check_answer_us":   {perAsk("guardrails.check_answer"), "us"},
		"embedding.embed_us":           {perAsk("embedding.embed"), "us"},
		"index.text_us":                {perAsk("index.text"), "us"},
		"index.text_hits":              {totals["index.text"].workPerCall(), "count"},
		"index.vector_us":              {perAsk("index.vector"), "us"},
		"fusion.rrf_us":                {perAsk("fusion.rrf"), "us"},
		"rerank.rerank_us":             {perAsk("rerank.rerank"), "us"},
		"rerank.candidates":            {totals["rerank.rerank"].workPerCall(), "count"},
		"search.search_us":             {perAsk("search.search"), "us"},
		"search.cache_hit_ratio":       {float64(rp.hits) / float64(rp.asks), "ratio"},
		"generation.generate_us":       {perAsk("generation.generate"), "us"},
		"llm.rewrite_us":               {perAsk("llm.rewrite"), "us"},
		"session.store_us":             {perAsk("session.store"), "us"},
		"core.ask_us":                  {coreAsk, "us"},
		"core.unattributed_us":         {coreAsk - attributed, "us"},
		"server.self_us":               {summarize(viaHTTP).Median - summarize(viaCore).Median, "us"},
		"trace.overhead_us":            {spansPerAsk * us(spanCost()), "us"},
		"ingest.sync_ms":               {totals["ingest.sync"].meanMS(), "ms"},
		"indexer.index_doc_ms":         {totals["indexer.index_doc"].meanMS(), "ms"},
		"index.publish_ms":             {totals["index.publish"].meanMS(), "ms"},
		"index.segments":               {mean(rp.segments), "count"},
		"index.tombstone_ratio":        {mean(rp.tombstoneRatio), "ratio"},
		"index.compaction_backlog":     {mean(rp.backlog), "count"},
		"runtime.allocs_per_ask":       {float64(load.mem1.Mallocs-load.mem0.Mallocs) / ops, "count"},
		"runtime.alloc_kb_per_ask":     {float64(load.mem1.TotalAlloc-load.mem0.TotalAlloc) / 1024 / ops, "KB"},
		"runtime.gc_pause_ms":          {float64(load.mem1.PauseTotalNs-load.mem0.PauseTotalNs) / 1e6, "ms"},
	}
	d.Samples["server_http_us"] = summarize(viaHTTP)
	d.Samples["server_core_us"] = summarize(viaCore)
	d.Extra["load_cache_hit_ratio"] = load.cacheHitRatio
	d.Extra["replayed_asks"] = rp.asks
	d.Extra["replay_drift"] = rp.drift
	d.Extra["replay_unverified"] = rp.unverified
	if len(rp.driftReasons) > 0 {
		d.Extra["replay_drift_reasons"] = rp.driftReasons
	}
	d.Extra["layers"] = totals
	if err := writeSpans(o, rp.rec); err != nil {
		fmt.Fprintln(errOut, "perfbench: spans not written:", err)
	}
	return m, rp.drift == 0, nil
}

// serverOverhead times the same cached questions through HTTP and through
// core.Engine.Ask, in µs, after one untimed round that makes sure both sides
// hit the cache.
func serverOverhead(ctx context.Context, st *stack, questions []string, t *tally) (viaHTTP, viaCore []float64, err error) {
	for round := 0; round < 3; round++ {
		for _, q := range questions {
			lat, _, err := st.cl.ask(ctx, q)
			if round > 0 {
				t.record(err)
				viaHTTP = append(viaHTTP, us(lat))
			}
			begin := time.Now()
			if _, err := st.eng.Ask(ctx, q); err != nil {
				return nil, nil, fmt.Errorf("core ask: %w", err)
			}
			if round > 0 {
				viaCore = append(viaCore, us(time.Since(begin)))
			}
		}
	}
	return viaHTTP, viaCore, nil
}

// writeJSON stores one run's record of the given kind as a JSON file.
func writeJSON(o options, kind string, v any) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, fmt.Sprintf("%s-%s-seed%d.json", kind, o.workload, o.seed)), b, 0o644)
}

// writeSpans dumps the replay's spans, one JSON object a line.
func writeSpans(o options, rec *recorder) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(resultsDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
