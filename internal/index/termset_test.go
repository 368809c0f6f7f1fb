package index

import (
	"bytes"
	"context"
	"testing"

	"uniask/internal/textproc"
)

// termSetDocs is segCorpus plus the edge cases a stored set must survive:
// an empty title, a missing content field, accents and elisions.
func termSetDocs() []Document {
	docs := segCorpus(40)
	docs = append(docs,
		Document{ID: "e1#0", ParentID: "e1", Fields: map[string]string{"content": "Il bonifico dell'estero è già arrivato: perché?"}},
		Document{ID: "e2#0", ParentID: "e2", Fields: map[string]string{"title": "Solo titolo ERR-4032"}},
	)
	return docs
}

type termSetStore interface {
	LiveDocs() []Document
	Analyzer() *textproc.Analyzer
}

// storedTermSets maps every live chunk to its stored title and content
// term sets.
func storedTermSets(t *testing.T, s termSetStore) map[string][2]textproc.TermSet {
	t.Helper()
	out := make(map[string][2]textproc.TermSet)
	for _, d := range s.LiveDocs() {
		out[d.ID] = [2]textproc.TermSet{d.TermSet("title", s.Analyzer()), d.TermSet("content", s.Analyzer())}
	}
	return out
}

// freshTermSets indexes the given documents into a brand-new index and
// returns their term sets: the reference every lifecycle stage must match.
func freshTermSets(t *testing.T, docs []Document) map[string][2]textproc.TermSet {
	t.Helper()
	ix := New(Config{})
	if err := ix.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	return storedTermSets(t, ix)
}

func assertTermSets(t *testing.T, label string, got, want map[string][2]textproc.TermSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d live chunks, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Fatalf("%s: %s term sets = %q, want %q", label, id, g, w)
		}
	}
}

func TestTermSetMatchesAnalysis(t *testing.T) {
	ix := New(Config{})
	docs := termSetDocs()
	if err := ix.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	a := ix.Analyzer()
	for _, d := range docs {
		got, _ := ix.DocByID(d.ID)
		for _, f := range []string{"title", "content"} {
			if g, w := got.TermSet(f, a), a.TermSet(d.Fields[f]); g != w {
				t.Fatalf("%s %s: stored %q, analysis %q", d.ID, f, g, w)
			}
		}
		if g := got.TermSet("summary", a); g != "" {
			t.Fatalf("%s: summary term set %q, want none kept", d.ID, g)
		}
		if g := got.TermSet("title", textproc.Raw()); g != "" {
			t.Fatalf("%s: term set offered to a different analyzer: %q", d.ID, g)
		}
	}
	if got, _ := ix.DocByID("e1#0"); got.TermSet("title", a) != textproc.EmptyTermSet {
		t.Fatalf("empty title: %q, want the empty set", got.TermSet("title", a))
	}
	// Sets are never offered for documents that were not stored by an index.
	if (&Document{Fields: map[string]string{"title": "x"}}).TermSet("title", a) != "" {
		t.Fatal("unindexed document offers a term set")
	}
}

// TestTermSetsSurviveLifecycle runs a segmented store through seals,
// deletes, compaction and a save/load round trip, and requires the term
// sets of every live chunk to equal those of a freshly built index at each
// stage.
func TestTermSetsSurviveLifecycle(t *testing.T) {
	docs := termSetDocs()
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2})
	if err := seg.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	seg.Delete(docs[3].ID)
	seg.DeleteParent(docs[17].ParentID)
	var live []Document
	for _, d := range docs {
		if d.ID != docs[3].ID && d.ParentID != docs[17].ParentID {
			live = append(live, d)
		}
	}
	want := freshTermSets(t, live)
	assertTermSets(t, "live store", storedTermSets(t, seg), want)

	seg.Publish()
	seg.WaitCompaction()
	for {
		merged, err := seg.CompactOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !merged {
			break
		}
	}
	if seg.SegmentStats().Compactions == 0 {
		t.Fatal("fixture never compacted")
	}
	assertTermSets(t, "after compaction", storedTermSets(t, seg), want)

	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSegmented(&buf, Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertTermSets(t, "after Save/ReadSegmented", storedTermSets(t, loaded), want)

	// A single-index snapshot (the legacy format) rebuilds them too.
	mono := New(Config{})
	if err := mono.AddBulk(live); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := mono.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Read(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertTermSets(t, "after Save/Read", storedTermSets(t, restored), want)
}
