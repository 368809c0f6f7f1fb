package main

import (
	"math/rand"
	"strings"
	"time"

	"uniask/internal/kb"
)

const (
	// corpusDocs is the knowledge-base size every workload indexes
	// (about 2500 chunks): small enough that a run, three setups and the
	// measured window, takes about half a minute.
	corpusDocs = 2000
	// corpusSeed fixes the knowledge base, its replacement pages, the MRR
	// check set and faq-hot's pool for every run, so a run's seed varies
	// only the order of the traffic and the figures of two seeds differ by
	// noise, not by workload.
	corpusSeed = 42
	// streamLen is the length of each seeded question stream; a run of
	// any length cycles through it, and the traced replay starts halfway.
	streamLen = 5000
	// hotPool is faq-hot's question pool: slightly above the query
	// cache's 512 entries, so a Zipf-skewed draw mostly hits but the
	// rarest questions keep missing.
	hotPool = 600
	// hotZipfS is the skew of faq-hot's draw over the pool.
	hotZipfS = 1.1
	// sessionTurns is how many turns a cold conversation lasts before the
	// client opens a new session.
	sessionTurns = 4
	// checkSetSize is the number of human questions in the MRR check set.
	checkSetSize = 200
	// warmAsks is how many one-shot asks warm the server of a workload
	// without a hot pool.
	warmAsks = 32
	// editBatchPages and editInterval set ingest-live's open-loop CMS
	// schedule: 10 page replacements every 250 ms (40 pages/s).
	editBatchPages = 10
	editInterval   = 250 * time.Millisecond
	// sliceSeconds is the slice length over which the clients' medians and
	// rates are taken; the run reports its best slice (see README.md).
	sliceSeconds = 2
	// tracedIngestPasses is how many edit batches the traced run of a
	// workload without edits replays, so every workload reports the ingest
	// layers.
	tracedIngestPasses = 8
)

// workload names one traffic mix. Every workload runs one closed-loop
// one-shot client and one closed-loop session client; they differ in the
// questions the clients draw and in whether CMS edits arrive meanwhile.
type workload struct {
	name string
	// hot draws every question from the Zipf-skewed pool, with one-turn
	// sessions; otherwise questions are distinct and sessions last
	// sessionTurns turns.
	hot bool
	// edits runs the open-loop CMS editor beside the clients.
	edits bool
}

var workloads = map[string]workload{
	"cold-mix":    {name: "cold-mix"},
	"faq-hot":     {name: "faq-hot", hot: true},
	"ingest-live": {name: "ingest-live", edits: true},
}

// turn is one session-client step.
type turn struct {
	question   string
	newSession bool
}

// inputs are every question and edit a run sends: the traffic derives from
// the run's seed, the corpus and the check set from corpusSeed.
type inputs struct {
	w workload
	// oneShot and turns are the two clients' streams, indexed from 0.
	oneShot []string
	turns   []turn
	// warm is the setup's warm-up question list.
	warm []string
	// check is the MRR check set with its ground truth.
	check []kb.Query
	// edits draws page replacements for ingest-live and for the traced
	// ingest replay of the other workloads.
	edits *editPlan
}

func newInputs(w workload, seed int64) *inputs {
	corpus := generateCorpus()
	in := &inputs{w: w}
	in.check = corpus.HumanDataset(checkSetSize, corpusSeed).Queries
	if w.hot {
		// The pool and its popularity order are fixed like the corpus: the
		// head questions carry much of the traffic, so a pool drawn per seed
		// would change the workload's cost, not just its sequence.
		pool := distinctQuestions(corpus.HumanDataset(4*hotPool, corpusSeed+1), hotPool)
		in.oneShot = zipfStream(pool, seed*7+3)
		for _, q := range zipfStream(pool, seed*7+4) {
			in.turns = append(in.turns, turn{question: q, newSession: true})
		}
		// Warm from the rarest question to the most popular, so the cache
		// starts in its steady state: the popular head resident, the tail
		// evicted.
		for i := len(pool) - 1; i >= 0; i-- {
			in.warm = append(in.warm, pool[i])
		}
	} else {
		human := texts(corpus.HumanDataset(2*streamLen, seed*7+2))
		keyword := texts(corpus.KeywordDataset(streamLen, seed*7+3))
		for i := 0; i < streamLen; i++ {
			in.oneShot = append(in.oneShot, human[2*i])
			if k := i % sessionTurns; k == 0 {
				in.turns = append(in.turns, turn{question: human[2*i+1], newSession: true})
			} else {
				// Elliptical follow-up that only makes sense against the
				// conversation so far; the engine rewrites it first.
				in.turns = append(in.turns, turn{question: "e per " + keyword[i] + "?"})
			}
		}
		in.warm = texts(corpus.HumanDataset(warmAsks, seed*7+5))
	}
	in.edits = newEditPlan(corpus, seed)
	return in
}

func generateCorpus() *kb.Corpus {
	return kb.Generate(kb.GenConfig{Docs: corpusDocs, Seed: corpusSeed})
}

func texts(ds kb.Dataset) []string {
	out := make([]string, len(ds.Queries))
	for i, q := range ds.Queries {
		out[i] = q.Text
	}
	return out
}

// distinctQuestions returns the first n distinct question texts of ds.
func distinctQuestions(ds kb.Dataset, n int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range ds.Queries {
		if len(out) == n {
			break
		}
		if !seen[q.Text] {
			seen[q.Text] = true
			out = append(out, q.Text)
		}
	}
	return out
}

// zipfStream draws streamLen questions from pool, rank r with probability
// proportional to 1/(1+r)^hotZipfS.
func zipfStream(pool []string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(pool)-1))
	out := make([]string, streamLen)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// editPlan produces CMS-style page replacements: page k of the indexed
// corpus takes the content of page k of a second corpus, plus a
// revision marker no other page carries, so the edit is checkable by
// search. Pages are edited in a seeded order.
type editPlan struct {
	ids   []string
	order []int
	html  []string
	next  int
}

// edit is one page replacement.
type edit struct {
	page   string
	html   string
	marker string
}

func newEditPlan(corpus *kb.Corpus, seed int64) *editPlan {
	with := kb.Generate(kb.GenConfig{Docs: len(corpus.Docs), Seed: corpusSeed + 1})
	p := &editPlan{order: rand.New(rand.NewSource(seed*7 + 6)).Perm(len(corpus.Docs))}
	for i, d := range corpus.Docs {
		p.ids = append(p.ids, d.ID)
		p.html = append(p.html, with.Docs[i].HTML)
	}
	return p
}

// batch returns the next n edits. A page edited twice within one batch is
// impossible: the order is a permutation and n is far below its length.
func (p *editPlan) batch(n int) []edit {
	out := make([]edit, n)
	for i := range out {
		k := p.order[p.next%len(p.order)]
		marker := revisionMarker(p.next)
		p.next++
		html := strings.Replace(p.html[k], "</body>", "<p>Revisione "+marker+".</p>\n</body>", 1)
		out[i] = edit{page: p.ids[k], html: html, marker: marker}
	}
	return out
}

// revisionMarker spells n in base 20 over consonants after a fixed
// prefix: a token no generated text contains, with no vowel for the Italian
// stemmer to strip, so every marker stays distinct in the index.
func revisionMarker(n int) string {
	const digits = "bcdfghjklmnpqrstvwxz"
	b := []byte("zqrv")
	for {
		b = append(b, digits[n%len(digits)])
		n /= len(digits)
		if n == 0 {
			return string(b)
		}
	}
}
