package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"uniask/internal/core"
	"uniask/internal/embedding"
	"uniask/internal/fusion"
	"uniask/internal/generation"
	"uniask/internal/guardrails"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/queue"
	"uniask/internal/rerank"
	"uniask/internal/search"
	"uniask/internal/session"
)

// The replay reproduces the engine's default search options: BM25 over
// title and content for the top 50, the 15 nearest chunks per vector
// field, RRF with c=60 cut to 50, then semantic reranking.
const (
	replayTextN   = 50
	replayVectorK = 15
	replayFinalN  = 50
)

// span is one timed call into a layer during the traced replay.
type span struct {
	Name string `json:"name"`
	// Query identifies the replayed ask or ingest pass the span belongs to.
	Query int `json:"query"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Work counts what the call produced (hits, candidates, documents).
	Work int `json:"work,omitempty"`
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	base  time.Time
	spans []span
}

// now is the recorder's clock; safe to read from any goroutine.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) begin(name string, query, parent int) int {
	r.spans = append(r.spans, span{Name: name, Query: query, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) end(id, work int) {
	r.spans[id].End = r.now()
	r.spans[id].Work = work
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	Calls int           `json:"calls"`
	Total time.Duration `json:"total_ns"`
	// Self is Total minus the part of each span's interval its children
	// cover (children that run in parallel count once).
	Self time.Duration `json:"self_ns"`
	Work int           `json:"work"`
}

func (r *recorder) totals() map[string]*layerTotal {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTotal)
	for i, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(children[i]))
		lt.Work += s.Work
	}
	return out
}

func (lt *layerTotal) workPerCall() float64 {
	if lt == nil || lt.Calls == 0 {
		return 0
	}
	return float64(lt.Work) / float64(lt.Calls)
}

func (lt *layerTotal) meanMS() float64 {
	if lt == nil || lt.Calls == 0 {
		return 0
	}
	return ms(lt.Total) / float64(lt.Calls)
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for _, s := range spans {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

func (r *recorder) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 200000
	r := &recorder{base: time.Now()}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibration", i, -1), 0)
	}
	return time.Since(start) / n
}

// conversation is the replay's view of one session-client conversation.
type conversation struct{ id string }

// replayer times the workload stream through each layer's exported entry
// points, in pipeline order, alongside the untraced core.Engine.Ask call on
// the same question.
type replayer struct {
	st  *stack
	rec *recorder
	// plain is the engine's searcher without a cache: the reference the
	// replayed ranking must match.
	plain    *search.Searcher
	sessions *session.Store
	ingester *ingest.Ingester
	extracts *queue.Queue[ingest.Extracted]
	next     int

	asks, hits        int
	askTime           time.Duration
	drift, unverified int
	driftReasons      map[string]int
	// segments, tombstoneRatio and backlog are store gauges sampled after
	// every replayed publication.
	segments, tombstoneRatio, backlog []float64
}

func newReplayer(st *stack) *replayer {
	s := st.eng.Searcher
	return &replayer{
		st:  st,
		rec: &recorder{base: time.Now()},
		plain: &search.Searcher{
			Index: s.Index, Embedder: s.Embedder, Reranker: s.Reranker,
			LLM: s.LLM, Workers: s.Workers,
		},
		sessions:     session.NewStore(session.Config{}),
		driftReasons: make(map[string]int),
	}
}

// run replays the workload stream for d from the middle of the question
// streams, alternating a one-shot ask and a session turn like the two
// clients; on ingest-live an edit batch is replayed every editInterval. It
// returns the one-shot questions it asked, in order.
func (rp *replayer) run(ctx context.Context, in *inputs, d time.Duration, t *tally) ([]string, error) {
	if err := rp.primeIngest(); err != nil {
		return nil, err
	}
	var (
		conv     *conversation
		oneShots []string
	)
	start := time.Now()
	nextEdit := start
	for i := streamLen / 2; time.Since(start) < d; i++ {
		q := in.oneShot[i%len(in.oneShot)]
		if err := rp.ask(ctx, q, nil); err != nil {
			return nil, err
		}
		oneShots = append(oneShots, q)
		tn := in.turns[i%len(in.turns)]
		if tn.newSession || conv == nil {
			conv = &conversation{}
		}
		if err := rp.ask(ctx, tn.question, conv); err != nil {
			return nil, err
		}
		if in.w.edits && !time.Now().Before(nextEdit) {
			if err := rp.ingestBatch(ctx, in.edits.batch(editBatchPages), t); err != nil {
				return nil, err
			}
			nextEdit = nextEdit.Add(editInterval)
		}
	}
	return oneShots, nil
}

func (rp *replayer) mismatch(reason string) {
	rp.drift++
	rp.driftReasons[reason]++
}

// ask replays one question: conv is nil for a one-shot ask, else the
// conversation the turn belongs to (a zero id opens a new session).
func (rp *replayer) ask(ctx context.Context, question string, conv *conversation) error {
	eng := rp.st.eng
	qid := rp.next
	rp.next++

	// The untraced reference: the engine's own Ask on the same question and
	// history, noting whether its search hit the query cache.
	var history []llm.Exchange
	if conv != nil && conv.id != "" {
		sess, err := rp.sessions.Get("", conv.id)
		if err != nil {
			return fmt.Errorf("replay: session: %w", err)
		}
		history = sess.History()
	}
	hitsBefore := eng.Searcher.Cache.Stats().Hits
	start := time.Now()
	ref, err := eng.AskConversational(ctx, question, history, core.StreamEvents{})
	rp.askTime += time.Since(start)
	if err != nil {
		return fmt.Errorf("replay: ask: %w", err)
	}
	hit := eng.Searcher.Cache.Stats().Hits > hitsBefore
	rp.asks++
	if hit {
		rp.hits++
	}

	rec := rp.rec
	root := rec.begin("ask", qid, -1)
	defer rec.end(root, 1)
	if conv != nil {
		s := rec.begin("session.store", qid, root)
		if conv.id == "" {
			sess, err := rp.sessions.Create("", 0)
			if err != nil {
				return fmt.Errorf("replay: session: %w", err)
			}
			conv.id = sess.ID
		}
		_, err := rp.sessions.Get("", conv.id)
		rec.end(s, 1)
		if err != nil {
			return fmt.Errorf("replay: session: %w", err)
		}
	}
	s := rec.begin("guardrails.check_question", qid, root)
	trigger := eng.Guards.CheckQuestion(question)
	rec.end(s, 1)
	if trigger != guardrails.None {
		return nil
	}

	query := question
	if len(history) > 0 {
		s := rec.begin("llm.rewrite", qid, root)
		resp, err := eng.Client.Complete(ctx, llm.BuildRewritePrompt(history, question))
		rec.end(s, 1)
		if err != nil {
			return fmt.Errorf("replay: rewrite: %w", err)
		}
		if q := strings.TrimSpace(resp.Content); q != "" {
			query = q
		}
	}
	if want := ref.RewrittenQuery; (want == "" && query != question) || (want != "" && query != want) {
		rp.mismatch("rewrite differs from core.Engine.Ask")
	}

	compactions := rp.st.indexStats().Compactions
	s = rec.begin("search.search", qid, root)
	var results []search.Result
	if hit {
		results, err = eng.Searcher.Search(ctx, query, search.Options{})
	} else {
		results, err = rp.searchLayers(ctx, query, qid, s)
	}
	rec.end(s, len(results))
	if err != nil {
		return err
	}
	if !hit {
		rp.checkRanking(ctx, query, results, compactions)
	}

	top := results
	if len(top) > generation.DefaultM {
		top = top[:generation.DefaultM]
	}
	chunks := make([]generation.RetrievedChunk, len(top))
	contexts := make([]string, len(top))
	for i, r := range top {
		chunks[i] = generation.RetrievedChunk{ID: r.ChunkID, Title: r.Title, Content: r.Content}
		contexts[i] = r.Content
	}
	s = rec.begin("generation.generate", qid, root)
	ans, err := eng.Generator.Generate(ctx, query, chunks)
	rec.end(s, 1)
	if err != nil {
		return fmt.Errorf("replay: generate: %w", err)
	}
	s = rec.begin("guardrails.check_answer", qid, root)
	eng.Guards.CheckAnswer(ans.Text, ans.Citations, contexts)
	rec.end(s, 1)

	if conv != nil {
		t := session.Turn{Question: question, Answer: ans.Text}
		if query != question {
			t.RewrittenQuery = query
		}
		for i, r := range results {
			if i == 10 {
				break
			}
			t.Documents = append(t.Documents, session.TurnDoc{ChunkID: r.ChunkID, ParentID: r.ParentID, Title: r.Title})
		}
		s := rec.begin("session.store", qid, root)
		err := rp.sessions.AppendTurn("", conv.id, t)
		rec.end(s, 1)
		if err != nil {
			return fmt.Errorf("replay: session: %w", err)
		}
	}
	return nil
}

// searchLayers is the searcher's no-expansion hybrid path, one span per
// layer call: embed, BM25, ANN per vector field, RRF, rerank.
func (rp *replayer) searchLayers(ctx context.Context, query string, qid, parent int) ([]search.Result, error) {
	eng, rec := rp.st.eng, rp.rec
	s := rec.begin("embedding.embed", qid, parent)
	qvec, err := embedding.AsCtx(eng.Searcher.Embedder).EmbedCtx(ctx, query)
	rec.end(s, 1)
	if err != nil {
		return nil, fmt.Errorf("replay: embed: %w", err)
	}

	// The retrieval legs fan out over the searcher's worker pool, as the
	// engine runs them; each leg's span is recorded after the join.
	fields := eng.Index.VectorFields()
	type leg struct {
		hits       []index.Hit
		start, end int64
	}
	legs, err := pipeline.Map(ctx, rp.workers(), 1+len(fields), func(ctx context.Context, i int) (leg, error) {
		l := leg{start: rec.now()}
		if i == 0 {
			l.hits = eng.Index.SearchText(query, replayTextN, index.TextOptions{Fields: []string{"title", "content"}})
		} else {
			l.hits = eng.Index.SearchVector(fields[i-1], qvec, replayVectorK, nil)
		}
		l.end = rec.now()
		return l, nil
	})
	if err != nil {
		return nil, fmt.Errorf("replay: retrieval: %w", err)
	}
	rankings := make([]fusion.Ranking, len(legs))
	for i, l := range legs {
		name := "index.vector"
		if i == 0 {
			name = "index.text"
		}
		rec.spans = append(rec.spans, span{Name: name, Query: qid, Parent: parent, Start: l.start, End: l.end, Work: len(l.hits)})
		rankings[i] = ranking(l.hits)
	}

	s = rec.begin("fusion.rrf", qid, parent)
	fused := fusion.RRF(rankings, fusion.DefaultC)
	if len(fused) > replayFinalN {
		fused = fused[:replayFinalN]
	}
	rec.end(s, len(fused))

	results := make([]search.Result, 0, len(fused))
	vectors := make([][]float32, 0, len(fused))
	for _, f := range fused {
		doc, ok := eng.Index.DocByID(f.ID)
		if !ok {
			continue
		}
		results = append(results, search.Result{
			ChunkID: doc.ID, ParentID: doc.ParentID,
			Title: doc.Fields["title"], Content: doc.Fields["content"], Summary: doc.Fields["summary"],
			Score: f.Score,
		})
		vectors = append(vectors, doc.Vectors["contentVector"])
	}

	s = rec.begin("rerank.rerank", qid, parent)
	for i := range results {
		results[i].Score += eng.Searcher.Reranker.Score(query, qvec, rerank.Input{
			ID: results[i].ChunkID, Title: results[i].Title, Content: results[i].Content,
			ContentVector: vectors[i],
		})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].ChunkID < results[j].ChunkID
	})
	rec.end(s, len(results))
	return results, nil
}

// workers is the searcher's retrieval fan-out width.
func (rp *replayer) workers() int {
	if w := rp.st.eng.Searcher.Workers; w > 0 {
		return w
	}
	return pipeline.DefaultWorkers()
}

func ranking(hits []index.Hit) fusion.Ranking {
	r := make(fusion.Ranking, len(hits))
	for i, h := range hits {
		r[i] = h.ID
	}
	return r
}

// checkRanking compares a replayed ranking with search.Searcher.Search on
// the same query. A background compaction that lands after the replayed
// search began may legitimately change approximate vector neighbours, so a
// comparison that straddles one is counted as unverified instead.
func (rp *replayer) checkRanking(ctx context.Context, query string, got []search.Result, before uint64) {
	want, err := rp.plain.Search(ctx, query, search.Options{})
	if err != nil {
		rp.mismatch("search.Searcher.Search failed")
		return
	}
	if same(got, want) {
		return
	}
	if rp.st.indexStats().Compactions != before {
		rp.unverified++
		return
	}
	rp.mismatch("ranking differs from search.Searcher.Search")
}

func same(a, b []search.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ChunkID != b[i].ChunkID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// primeIngest gives the replay its own ingester over the page source, with
// one discarded pass so it fingerprints the loaded corpus; later passes
// publish only the pages the replay edits, like the engine's poller.
func (rp *replayer) primeIngest() error {
	rp.extracts = queue.New[ingest.Extracted]()
	rp.ingester = &ingest.Ingester{Source: rp.st.src, Out: rp.extracts}
	if _, err := rp.ingester.SyncOnce(); err != nil {
		return fmt.Errorf("replay: prime ingest: %w", err)
	}
	for {
		if _, ok := rp.extracts.TryDequeue(); !ok {
			return nil
		}
	}
}

// ingestBatch replays one poller pass over a batch of edits through the
// ingester, the indexer and the store's publication, then checks that
// every edited page is retrievable by its revision marker.
func (rp *replayer) ingestBatch(ctx context.Context, edits []edit, t *tally) error {
	eng, rec := rp.st.eng, rp.rec
	qid := rp.next
	rp.next++
	rp.st.src.apply(edits)
	root := rec.begin("ingest.pass", qid, -1)
	s := rec.begin("ingest.sync", qid, root)
	n, err := rp.ingester.SyncOnce()
	rec.end(s, n)
	if err != nil {
		rec.end(root, 0)
		return fmt.Errorf("replay: sync: %w", err)
	}
	in := indexer.New(eng.Index, eng.Embedder, eng.Client, indexer.Config{})
	for {
		doc, ok := rp.extracts.TryDequeue()
		if !ok {
			break
		}
		s := rec.begin("indexer.index_doc", qid, root)
		chunks, err := in.IndexDocument(ctx, doc)
		rec.end(s, chunks)
		if err != nil {
			rec.end(root, n)
			return fmt.Errorf("replay: index: %w", err)
		}
	}
	s = rec.begin("index.publish", qid, root)
	eng.Publish()
	rec.end(s, 1)
	rec.end(root, n)

	st := rp.st.indexStats()
	rp.segments = append(rp.segments, float64(st.Segments))
	rp.backlog = append(rp.backlog, float64(st.Backlog))
	if st.Docs > 0 {
		rp.tombstoneRatio = append(rp.tombstoneRatio, float64(st.Tombstones)/float64(st.Docs))
	}
	for _, e := range edits {
		t.record(checkEdit(e.page, markerParents(rp.st, e.marker)))
	}
	return nil
}
