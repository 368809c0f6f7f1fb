package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"uniask/internal/core"
	"uniask/internal/index"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/server"
)

// pageSource is the CMS the engine's poller reads: the corpus pages, with
// edits applied in place. Safe for the editor to write while a pass reads.
type pageSource struct {
	mu    sync.Mutex
	pages []ingest.Page
	pos   map[string]int
}

func newPageSource(c *kb.Corpus) *pageSource {
	s := &pageSource{pos: make(map[string]int, len(c.Docs))}
	for i, d := range c.Docs {
		s.pages = append(s.pages, ingest.Page{ID: d.ID, HTML: d.HTML})
		s.pos[d.ID] = i
	}
	return s
}

// Pages implements ingest.Source with a snapshot of the current pages.
func (s *pageSource) Pages() []ingest.Page {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ingest.Page(nil), s.pages...)
}

func (s *pageSource) apply(edits []edit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range edits {
		s.pages[s.pos[e.page]].HTML = e.html
	}
}

// stack is one served engine: the index loaded through the poller, the
// real server handler on a loopback listener, and a logged-in client.
type stack struct {
	eng   *core.Engine
	hs    *http.Server
	src   *pageSource
	poll  func() (int, error)
	cl    *client
	serve chan error
}

// setupTimes splits one setup: the timed parts (generation, load pass,
// compaction drain, server start, warm-up) and the load pass alone.
type setupTimes struct {
	total time.Duration
	load  time.Duration
}

// startStack generates the corpus, loads it through the poller's first
// pass, drains background compaction and starts serving. before runs after
// the drain and outside the timing, ahead of the warm-up (the MRR check
// goes there, so it cannot disturb a warmed cache).
func startStack(ctx context.Context, in *inputs, before func(*stack) error) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	corpus := generateCorpus()
	eng := core.New(core.Config{Lexicon: corpus.Lexicon()})
	st := &stack{eng: eng, src: newPageSource(corpus)}
	st.poll = eng.NewPoller(ctx, st.src)
	loadStart := time.Now()
	n, err := st.poll()
	t.load = time.Since(loadStart)
	if err != nil {
		return nil, t, fmt.Errorf("load pass: %w", err)
	}
	if n != len(corpus.Docs) {
		return nil, t, fmt.Errorf("load pass indexed %d of %d pages", n, len(corpus.Docs))
	}
	drain(eng)
	if err := st.serveHTTP(ctx); err != nil {
		return nil, t, err
	}
	t.total = time.Since(start)
	if before != nil {
		if err := before(st); err != nil {
			st.close()
			return nil, t, err
		}
	}
	warmStart := time.Now()
	for _, q := range in.warm {
		if _, _, err := st.cl.ask(ctx, q); err != nil {
			st.close()
			return nil, t, fmt.Errorf("warm-up: %w", err)
		}
	}
	t.total += time.Since(warmStart)
	return st, t, nil
}

// drain waits for the store's background compaction to finish.
func drain(eng *core.Engine) {
	if w, ok := eng.Index.(interface{ WaitCompaction() }); ok {
		w.WaitCompaction()
	}
}

func (st *stack) serveHTTP(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	st.hs = &http.Server{Handler: server.New(st.eng).Handler()}
	st.serve = make(chan error, 1)
	go func() { st.serve <- st.hs.Serve(ln) }()
	st.cl, err = newClient(ctx, "http://"+ln.Addr().String())
	if err != nil {
		st.close()
		return err
	}
	return nil
}

// close stops the server and waits for its serve loop to end. A running
// compaction is left to finish or to end with the process.
func (st *stack) close() {
	if st.hs != nil {
		st.hs.Close()
		if err := <-st.serve; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(errOut, "perfbench: serve:", err)
		}
		st.hs = nil
	}
	if st.cl != nil {
		st.cl.hc.CloseIdleConnections()
	}
}

// indexStats reads the store gauges the per-layer run samples.
func (st *stack) indexStats() index.SegmentStats {
	var agg index.SegmentStats
	for _, s := range st.eng.SegmentStats() {
		agg.Segments += s.Segments
		agg.Backlog += s.Backlog
		agg.Docs += s.Docs
		agg.Tombstones += s.Tombstones
		agg.Compactions += s.Compactions
	}
	return agg
}
