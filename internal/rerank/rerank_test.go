package rerank

import (
	"math"
	"testing"

	"uniask/internal/embedding"
)

func TestScoreBounds(t *testing.T) {
	r := New()
	emb := embedding.NewSynth(64, nil)
	q := "come bloccare la carta di credito"
	s := r.Score(q, emb.Embed(q), Input{
		ID: "x", Title: "Blocco carta", Content: "Per bloccare la carta chiamare il numero verde.",
		ContentVector: emb.Embed("Per bloccare la carta chiamare il numero verde."),
	})
	if s <= 0 || s >= 1 {
		t.Fatalf("score out of (0,1): %v", s)
	}
}

func TestRelevantOutscoresIrrelevant(t *testing.T) {
	r := New()
	emb := embedding.NewSynth(64, nil)
	q := "come bloccare la carta di credito"
	qv := emb.Embed(q)
	rel := Input{ID: "rel", Title: "Blocco carta di credito",
		Content:       "Per bloccare la carta di credito chiamare il numero verde dedicato.",
		ContentVector: emb.Embed("Per bloccare la carta di credito chiamare il numero verde dedicato.")}
	irr := Input{ID: "irr", Title: "Mutuo prima casa",
		Content:       "Il mutuo prima casa offre un tasso agevolato ai giovani.",
		ContentVector: emb.Embed("Il mutuo prima casa offre un tasso agevolato ai giovani.")}
	sr := r.Score(q, qv, rel)
	si := r.Score(q, qv, irr)
	if sr <= si {
		t.Fatalf("relevant %.3f <= irrelevant %.3f", sr, si)
	}
	if sr < 0.6 {
		t.Fatalf("strong match scored low: %.3f", sr)
	}
	if si > 0.4 {
		t.Fatalf("non-match scored high: %.3f", si)
	}
}

func TestTitleSignalContributes(t *testing.T) {
	r := New()
	q := "blocco carta"
	withTitle := r.Score(q, nil, Input{Title: "Blocco carta", Content: "testo generico"})
	without := r.Score(q, nil, Input{Title: "Altro argomento", Content: "testo generico"})
	if withTitle <= without {
		t.Fatalf("title match ignored: %.3f <= %.3f", withTitle, without)
	}
}

func TestNilVectorSkipsSemantic(t *testing.T) {
	r := New()
	// Must not panic with nil vectors and still produce a sane score.
	s := r.Score("carta", nil, Input{Title: "carta", Content: "carta di credito"})
	if s <= 0 || s >= 1 {
		t.Fatalf("score = %v", s)
	}
}

func TestRerankPreservesOrderAndIDs(t *testing.T) {
	r := New()
	ins := []Input{{ID: "a", Content: "x"}, {ID: "b", Content: "y"}}
	out := r.Rerank("x", nil, ins)
	if len(out) != 2 || out[0].ID != "a" || out[1].ID != "b" {
		t.Fatalf("Rerank reordered or lost ids: %v", out)
	}
}

func TestEmptyQuery(t *testing.T) {
	r := New()
	s := r.Score("", nil, Input{Title: "t", Content: "c"})
	if s <= 0 || s >= 1 {
		t.Fatalf("score = %v", s)
	}
}

func TestDeterministic(t *testing.T) {
	r := New()
	emb := embedding.NewSynth(64, nil)
	in := Input{ID: "a", Title: "Blocco carta", Content: "Per bloccare la carta",
		ContentVector: emb.Embed("Per bloccare la carta")}
	q := "bloccare carta"
	qv := emb.Embed(q)
	if r.Score(q, qv, in) != r.Score(q, qv, in) {
		t.Fatal("nondeterministic score")
	}
}

// TestOverlapWeights pins the lexical and title channels: the weighted
// fraction of distinct query terms found in the field, an identifier-like
// term (one with a digit) weighing identifierWeight. Repeated query words
// count once.
func TestOverlapWeights(t *testing.T) {
	r := New()
	q := r.Prepare("errore ERR-4032 carta carta bonifico", nil)
	in := Input{
		Title:   "Errore ERR-4032",
		Content: "La carta riporta l'errore ERR-4032 al terminale.",
	}
	// Distinct terms: errore, err-4032 (weight 3), carta, bonifico: total 6.
	_, lex, title := q.features(in)
	if lex != 5.0/6 || title != 4.0/6 {
		t.Fatalf("lex, title = %v, %v; want 5/6, 4/6", lex, title)
	}
	w := r.Weights()
	want := 1 / (1 + math.Exp(-(w.Lexical*lex + w.Title*title + w.Bias)))
	if got := q.Score(in); got != want {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	// Stored term sets stand in for the text exactly.
	a := r.Analyzer()
	stored := Input{TitleTerms: a.TermSet(in.Title), ContentTerms: a.TermSet(in.Content)}
	if got := q.Score(stored); got != want {
		t.Fatalf("Score from term sets = %v, want %v", got, want)
	}
}
