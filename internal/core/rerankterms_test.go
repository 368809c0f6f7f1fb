package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"uniask/internal/index"
	"uniask/internal/kb"
	"uniask/internal/rerank"
	"uniask/internal/search"
)

// TestStoredTermSetsScoreBitIdentical is the equivalence property behind
// rerank feature extraction at index time: over the benchmark-size corpus
// (2000 pages) and its human and keyword query sets, scoring every fused
// candidate through a prepared query and the index's stored term sets gives
// bit-for-bit the score of the compatibility path, Reranker.Score on the
// bare text, which analyzes query and candidate from scratch.
func TestStoredTermSetsScoreBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes the 2000-page benchmark corpus")
	}
	ctx := context.Background()
	corpus := kb.Generate(kb.GenConfig{Docs: 2000, Seed: 42})
	e, err := BuildFromCorpus(ctx, corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rr := e.Searcher.Reranker
	var queries []string
	for _, ds := range []kb.Dataset{corpus.HumanDataset(150, 42), corpus.KeywordDataset(150, 43), corpus.ErrorCodeDataset(30, 44)} {
		for _, q := range ds.Queries {
			queries = append(queries, q.Text)
		}
	}
	queries = append(queries, "")

	scored, identifiers := 0, 0
	for _, query := range queries {
		qvec := e.Embedder.Embed(query)
		prepared := rr.Prepare(query, qvec)
		for _, term := range rr.Analyzer().TermSet(query).Delimited() {
			if strings.ContainsAny(term, "0123456789") {
				identifiers++
			}
		}
		res, err := e.Searcher.Search(ctx, query, search.Options{DisableSemanticRerank: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			doc, ok := e.Index.DocByID(r.ChunkID)
			if !ok {
				t.Fatalf("candidate %s vanished", r.ChunkID)
			}
			in := search.RerankInput(rr, &doc)
			if in.TitleTerms == "" || in.ContentTerms == "" {
				t.Fatalf("candidate %s carries no stored term sets", r.ChunkID)
			}
			got := prepared.Score(in)
			want := rr.Score(query, qvec, rerank.Input{
				ID: doc.ID, Title: doc.Fields["title"], Content: doc.Fields["content"],
				ContentVector: doc.Vectors["contentVector"],
			})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %q, %s: stored-set score %v != analyzed score %v", query, r.ChunkID, got, want)
			}
			scored++
		}
	}
	if scored < 10*len(queries) {
		t.Fatalf("only %d candidates scored for %d queries", scored, len(queries))
	}
	if identifiers == 0 {
		t.Fatal("no query carried an identifier-weighted term")
	}

	// An empty title is an empty stored set, not a missing one.
	ix := index.New(index.Config{})
	if err := ix.Add(index.Document{ID: "t#0", ParentID: "t", Fields: map[string]string{"content": "bloccare la carta"}}); err != nil {
		t.Fatal(err)
	}
	doc, _ := ix.DocByID("t#0")
	in := search.RerankInput(rr, &doc)
	if in.TitleTerms == "" {
		t.Fatal("empty title has no stored set")
	}
	for _, query := range []string{"bloccare la carta", ""} {
		q := rr.Prepare(query, nil)
		if got, want := q.Score(in), rr.Score(query, nil, rerank.Input{Content: "bloccare la carta"}); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("empty title, query %q: %v != %v", query, got, want)
		}
	}
}
