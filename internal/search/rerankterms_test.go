package search

import (
	"context"
	"fmt"
	"testing"

	"uniask/internal/textproc"
)

// rerankQueries exercise plain terms, an identifier (weighted up by the
// reranker), a query with no analyzable term, and an empty one.
var rerankQueries = []string{
	"bloccare la carta di credito",
	"ERR-2002 bonifico",
	"verificare il mutuo prima casa",
	"il la di",
	"",
}

// An index analyzing unlike the reranker must not lend it term sets: the
// candidates fall back to analysis at scoring time and the ranking stays
// byte-identical to the sequential reference, which always analyzes.
func TestRerankFallsBackForOtherAnalyzers(t *testing.T) {
	snowball := textproc.ItalianFull()
	snowball.UseSnowball = true
	for _, tc := range []struct {
		name string
		a    *textproc.Analyzer
	}{{"Raw", textproc.Raw()}, {"Snowball", snowball}} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildLargeSearcherWith(t, tc.a)
			doc, ok := s.Index.DocByID("d00#0")
			if !ok {
				t.Fatal("fixture chunk missing")
			}
			if in := RerankInput(s.Reranker, &doc); in.TitleTerms != "" || in.ContentTerms != "" {
				t.Fatalf("term sets of a %s index offered to the reranker: %+v", tc.name, in)
			}
			for _, q := range rerankQueries {
				want, err := seqSearch(s, context.Background(), q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Search(context.Background(), q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if wb, gb := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", got); wb != gb {
					t.Fatalf("query %q: ranking diverged from the reference\nref: %s\ngot: %s", q, wb, gb)
				}
			}
		})
	}
}

// maxUncachedSearchAllocs bounds the allocations of one uncached hybrid
// search over the fixture (19-26 reranked candidates per query). It
// measures ~90. Analyzing every candidate's title and content at rerank
// time, as the reranker did before it read the index's stored term sets,
// costs ~20 allocations per candidate (514-653 in all), so the bound
// catches per-candidate analysis coming back.
const maxUncachedSearchAllocs = 200

func TestUncachedSearchAllocs(t *testing.T) {
	s := buildLargeSearcher(t)
	s.Workers = 1
	ctx := context.Background()
	for _, q := range rerankQueries[:3] {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Search(ctx, q, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxUncachedSearchAllocs {
			t.Fatalf("query %q: uncached Search allocates %.0f times, want <= %d", q, allocs, maxUncachedSearchAllocs)
		}
		t.Logf("query %q: %.0f allocs", q, allocs)
	}
}
