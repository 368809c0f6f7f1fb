package index

import (
	"runtime"
	"testing"
	"time"

	"uniask/internal/vector"
)

// searchedIndex builds a small index, runs a text and a vector search on
// it (checking their pools out and back in) and returns it.
func searchedIndex(t *testing.T) *Index {
	t.Helper()
	ix := New(Config{})
	docs := segCorpus(20)
	if err := ix.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	if hits := ix.SearchText("procedura conto", 5, TextOptions{}); len(hits) == 0 {
		t.Fatal("fixture text search found nothing")
	}
	if hits := ix.SearchVectorUnit("contentVector", docs[0].Vectors["contentVector"], 5, nil); len(hits) == 0 {
		t.Fatal("fixture vector search found nothing")
	}
	return ix
}

// TestSearchedIndexCollectedByOneGC checks that an index dropped right
// after a search (the fate of every segment compaction retires) is garbage
// after a single collection, and so are its vector graphs. A pool embedded
// in the index or in a graph would keep it reachable through sync.Pool's
// victim cache until the GC after next. The index and the graphs are
// watched in separate runs because the runtime finalizes an object only
// after whatever points at it.
func TestSearchedIndexCollectedByOneGC(t *testing.T) {
	for _, watch := range []string{"index", "graphs"} {
		t.Run(watch, func(t *testing.T) {
			collected := make(chan struct{}, 4)
			done := func() { collected <- struct{}{} }
			want := 0
			func() {
				ix := searchedIndex(t)
				if watch == "index" {
					runtime.SetFinalizer(ix, func(*Index) { done() })
					want++
					return
				}
				for name, vx := range ix.vecs {
					h, ok := vx.(*vector.HNSW)
					if !ok {
						t.Fatalf("vector field %s is a %T, want the HNSW graph", name, vx)
					}
					runtime.SetFinalizer(h, func(*vector.HNSW) { done() })
					want++
				}
			}()
			runtime.GC()
			deadline := time.After(5 * time.Second)
			for got := 0; got < want; got++ {
				select {
				case <-collected:
				case <-deadline:
					t.Fatalf("%d of %d outlived one GC after the last reference was dropped", want-got, want)
				}
			}
		})
	}
}
