// Package rerank implements the semantic reranking stage of Hybrid Search
// with Semantic reranking (HSS). The production system uses a proprietary
// multi-lingual deep model from Bing / Microsoft Research (multi-task
// learning, Liu et al. 2019) that re-scores the fused top results; its
// final relevance score is added to the RRF score.
//
// The substitute here is a deterministic cross-scorer with the same signal
// structure a cross-encoder learns for this task: semantic affinity between
// query and chunk (embedding cosine), lexical evidence (normalized term
// overlap), and title affinity, combined through a calibrated logistic so
// the output lives in (0, 1) like a relevance probability.
//
// The logistic's weights are an atomically-published snapshot rather than
// plain fields: click feedback (see feedback.go) recalibrates them online
// with bounded steps, every publication bumps a version, and the query
// cache keys rankings on that version so a recalibration never replays a
// stale ordering.
package rerank

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"uniask/internal/textproc"
	"uniask/internal/vector"
)

// Input is one candidate to re-score.
type Input struct {
	// ID identifies the chunk.
	ID string
	// Title and Content are the chunk's retrievable text fields.
	Title   string
	Content string
	// ContentVector is the chunk's content embedding (may be nil; the
	// semantic component is then skipped).
	ContentVector vector.Vector
	// TitleTerms and ContentTerms optionally carry the distinct analyzed
	// terms of Title and Content, as an index analyzer equal to
	// Reranker.Analyzer stored them (see index.Document.TermSet). A zero
	// set is derived from the text at scoring time, with identical results.
	TitleTerms   textproc.TermSet
	ContentTerms textproc.TermSet
}

// Scored is a reranked candidate.
type Scored struct {
	ID string
	// Score is the semantic relevance score in (0, 1).
	Score float64
}

// Weights is one immutable parameter snapshot of the scoring logistic:
// the three evidence-channel weights and the bias.
type Weights struct {
	Semantic float64
	Lexical  float64
	Title    float64
	Bias     float64
}

// DefaultWeights is the pre-calibrated logistic: a strongly matching chunk
// scores ≈0.9 and an unrelated one ≈0.1. It anchors the recalibration
// envelope — online feedback may drift the weights only a bounded distance
// from this calibration.
var DefaultWeights = Weights{Semantic: 4.0, Lexical: 3.0, Title: 1.5, Bias: -3.0}

// snapshot pairs a weight set with its version so readers observe both
// atomically.
type snapshot struct {
	w       Weights
	version uint64
}

// Reranker is the simulated cross-encoder. Scoring reads one atomic weight
// snapshot; Recalibrate publishes new snapshots. Safe for concurrent use.
type Reranker struct {
	cur  atomic.Pointer[snapshot]
	base Weights // envelope anchor; immutable after New

	// mu serializes recalibrations (readers never take it).
	mu     sync.Mutex
	clicks uint64 // feedback events applied, under mu

	analyzer *textproc.Analyzer
}

// New returns a reranker with the default calibration.
func New() *Reranker {
	r := &Reranker{
		base:     DefaultWeights,
		analyzer: textproc.ItalianFull(),
	}
	r.cur.Store(&snapshot{w: DefaultWeights, version: 1})
	return r
}

// Weights returns the current parameter snapshot.
func (r *Reranker) Weights() Weights { return r.cur.Load().w }

// Version returns the current weight version. It changes exactly when a
// recalibration publishes new weights, so it keys anything (a cached
// ranking) whose validity depends on the parameters.
func (r *Reranker) Version() uint64 { return r.cur.Load().version }

// Analyzer returns the analyzer the reranker derives term sets with. A
// caller holding term sets an index analyzed with an equal analyzer may
// pass them in Input instead of having Score analyze the text again.
func (r *Reranker) Analyzer() *textproc.Analyzer { return r.analyzer }

// Query is a query prepared for scoring a batch of candidates: its text is
// analyzed once, each term's weight is computed once, and the weight
// snapshot is read once, so every candidate of the batch is scored under
// the same calibration.
type Query struct {
	analyzer *textproc.Analyzer
	vec      vector.Vector
	w        Weights
	// terms are the query's distinct terms in delimited form (see
	// textproc.TermSet.Delimited) with their weights; total is the weight
	// sum.
	terms []queryTerm
	total float64
}

type queryTerm struct {
	delimited string
	weight    float64
}

// Prepare analyzes query for scoring candidates with Query.Score. qvec is
// the query embedding (nil skips the semantic channel).
func (r *Reranker) Prepare(query string, qvec vector.Vector) Query {
	q := Query{analyzer: r.analyzer, vec: qvec, w: r.cur.Load().w}
	delimited := r.analyzer.TermSet(query).Delimited()
	q.terms = make([]queryTerm, len(delimited))
	for i, d := range delimited {
		w := 1.0
		if strings.ContainsAny(d, "0123456789") {
			w = identifierWeight
		}
		q.terms[i] = queryTerm{delimited: d, weight: w}
		q.total += w
	}
	return q
}

// features computes the three evidence channels for one candidate. Term
// sets the candidate does not carry are derived from its text.
func (q *Query) features(in Input) (sem, lex, title float64) {
	if q.vec != nil && in.ContentVector != nil {
		sem = float64(vector.Cosine(q.vec, in.ContentVector))
		if sem < 0 {
			sem = 0
		}
	}
	content, titleSet := in.ContentTerms, in.TitleTerms
	if content == "" {
		content = q.analyzer.TermSet(in.Content)
	}
	if titleSet == "" {
		titleSet = q.analyzer.TermSet(in.Title)
	}
	return sem, q.overlap(content), q.overlap(titleSet)
}

// Score re-scores one candidate against the prepared query.
func (q *Query) Score(in Input) float64 {
	sem, lex, title := q.features(in)
	w := q.w
	z := w.Semantic*sem + w.Lexical*lex + w.Title*title + w.Bias
	return 1 / (1 + math.Exp(-z))
}

// Score re-scores a single candidate against the query (and its embedding,
// which may be nil). Scoring many candidates for one query is cheaper
// through Prepare, which analyzes the query once.
func (r *Reranker) Score(query string, qvec vector.Vector, in Input) float64 {
	q := r.Prepare(query, qvec)
	return q.Score(in)
}

// Rerank scores every candidate; it does not reorder — UniAsk adds the
// semantic score to the RRF score, so combination happens in the caller.
func (r *Reranker) Rerank(query string, qvec vector.Vector, ins []Input) []Scored {
	q := r.Prepare(query, qvec)
	out := make([]Scored, len(ins))
	for i, in := range ins {
		out[i] = Scored{ID: in.ID, Score: q.Score(in)}
	}
	return out
}

// identifierWeight up-weights identifier-like query terms (error codes,
// procedure codes): a cross-encoder attends very strongly to an exact match
// on a rare identifier.
const identifierWeight = 3.0

// overlap is the weighted fraction of query terms present in the document
// term set. The weights are small integers, so the sums are exact and the
// result does not depend on term order.
func (q *Query) overlap(d textproc.TermSet) float64 {
	if q.total == 0 {
		return 0
	}
	var n float64
	for _, t := range q.terms {
		if d.ContainsDelimited(t.delimited) {
			n += t.weight
		}
	}
	return n / q.total
}
