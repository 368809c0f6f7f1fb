package index

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"uniask/internal/textproc"
	"uniask/internal/vector"
)

// Persistence: Save serializes the whole index — documents, inverted
// postings, filters and the HNSW graphs — so Read restores it without
// re-analyzing documents or rebuilding the ANN structure (the expensive
// part of index construction). The format is a single gob stream.

// postingSnapshot mirrors the unexported posting type.
type postingSnapshot struct {
	Doc int32
	TF  int32
}

// fieldSnapshot mirrors fieldIndex.
type fieldSnapshot struct {
	Postings map[string][]postingSnapshot
	DocLens  []int
	TotalLen int
}

// indexSnapshot is the gob-serializable image of the index.
type indexSnapshot struct {
	Schema  Schema
	BM25    BM25Params
	Docs    []Document
	Fields  map[string]fieldSnapshot
	Filters map[string]map[string][]int32
	// Vectors holds one serialized HNSW stream per vector field; fields
	// whose index is not an HNSW are rebuilt from document vectors.
	Vectors map[string][]byte
	// Deleted lists tombstoned ordinals.
	Deleted []int32
}

// Save serializes the index. It holds the read lock for the duration, so a
// snapshot taken under live traffic is internally consistent.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := indexSnapshot{
		Schema:  ix.cfg.Schema,
		BM25:    ix.cfg.BM25,
		Docs:    ix.docs,
		Fields:  make(map[string]fieldSnapshot, len(ix.fields)),
		Filters: ix.filters,
		Vectors: make(map[string][]byte, len(ix.vecs)),
	}
	for ord := range ix.deleted {
		snap.Deleted = append(snap.Deleted, ord)
	}
	for name, fi := range ix.fields {
		fs := fieldSnapshot{
			Postings: make(map[string][]postingSnapshot, len(fi.postings)),
			DocLens:  fi.docLens,
			TotalLen: fi.totalLen,
		}
		for term, pl := range fi.postings {
			out := make([]postingSnapshot, len(pl))
			for i, p := range pl {
				out[i] = postingSnapshot{Doc: p.doc, TF: p.tf}
			}
			fs.Postings[term] = out
		}
		snap.Fields[name] = fs
	}
	for name, vx := range ix.vecs {
		h, ok := vx.(*vector.HNSW)
		if !ok {
			continue // rebuilt from document vectors on load
		}
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			return fmt.Errorf("index: serialize vector field %q: %w", name, err)
		}
		snap.Vectors[name] = buf.Bytes()
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	return nil
}

// ShardedSnapshotMagic is the byte prefix of the multi-shard snapshot
// container written by the shard facade's Save. It lives here (not in the
// shard package) so Read can recognize a sharded stream and refuse it with
// a pointed error instead of a cryptic gob decode failure.
const ShardedSnapshotMagic = "uniask-sharded-snapshot/"

// ErrShardedSnapshot is returned by Read when given a sharded snapshot
// container, which only shard.Load (or an engine configured with
// ShardCount > 1) can restore.
var ErrShardedSnapshot = errors.New(
	"index: stream is a sharded snapshot container, not a single-index snapshot; " +
		"load it with shard.Load or an engine configured with ShardCount > 1")

// streamName names a snapshot source in wrong-container errors: the file
// path when the reader carries one (*os.File does), "stream" otherwise.
func streamName(r io.Reader) string {
	if n, ok := r.(interface{ Name() string }); ok {
		if name := n.Name(); name != "" {
			return name
		}
	}
	return "stream"
}

// wrongContainer builds the refusal error for a recognizably wrong snapshot
// container: it names the source and the detected format and wraps the
// sentinel, so callers branch with errors.Is while the operator reading the
// log sees which file was pointed at the wrong loader and what it actually
// holds.
func wrongContainer(r io.Reader, format string, sentinel error) error {
	return fmt.Errorf("index: %s: detected a %s container: %w", streamName(r), format, sentinel)
}

// rebuildTerms restores the term sets documents keep (see Document.TermSet)
// from the postings, which hold exactly the distinct terms Add analyzed. The
// sets are not part of the snapshot, so every format — legacy, sharded and
// segmented sections alike, all of which load through Read — comes back
// with the sets a freshly built index would have.
func (ix *Index) rebuildTerms() error {
	for name, fi := range ix.fields {
		if !keepsTerms(name) {
			continue
		}
		perDoc := make([][]string, len(ix.docs))
		for term, pl := range fi.postings {
			for _, p := range pl {
				if p.doc < 0 || int(p.doc) >= len(perDoc) {
					return fmt.Errorf("index: field %q: posting of %q names document %d of %d", name, term, p.doc, len(perDoc))
				}
				perDoc[p.doc] = append(perDoc[p.doc], term)
			}
		}
		for ord, terms := range perDoc {
			ix.docs[ord].setTerms(ix.cfg.Analyzer, name, textproc.NewTermSet(terms))
		}
	}
	return nil
}

// Read restores an index written by Save. The provided Config supplies
// the non-serializable parts (analyzer, vector-index constructor); its
// Schema and BM25 params are overridden by the snapshot's.
func Read(r io.Reader, cfg Config) (*Index, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(ShardedSnapshotMagic)); err == nil && string(peek) == ShardedSnapshotMagic {
		return nil, wrongContainer(r, "sharded snapshot", ErrShardedSnapshot)
	}
	if peek, err := br.Peek(len(SegmentedSnapshotMagic)); err == nil && string(peek) == SegmentedSnapshotMagic {
		return nil, wrongContainer(r, "segmented snapshot", ErrSegmentedSnapshot)
	}
	var snap indexSnapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	cfg.Schema = snap.Schema
	cfg.BM25 = snap.BM25
	ix := New(cfg)
	ix.docs = snap.Docs
	for _, ord := range snap.Deleted {
		if ix.deleted == nil {
			ix.deleted = make(map[int32]bool)
		}
		ix.deleted[ord] = true
	}
	for i, d := range snap.Docs {
		if ix.isDeleted(int32(i)) {
			continue
		}
		ix.byID[d.ID] = int32(i)
		ix.byParent[d.ParentID] = append(ix.byParent[d.ParentID], int32(i))
	}
	for name, fs := range snap.Fields {
		fi := &fieldIndex{
			postings: make(map[string][]posting, len(fs.Postings)),
			docLens:  fs.DocLens,
			totalLen: fs.TotalLen,
		}
		for term, pl := range fs.Postings {
			out := make([]posting, len(pl))
			for i, p := range pl {
				out[i] = posting{doc: p.Doc, tf: p.TF}
			}
			fi.postings[term] = out
		}
		ix.fields[name] = fi
	}
	if err := ix.rebuildTerms(); err != nil {
		return nil, err
	}
	ix.filters = snap.Filters
	if ix.filters == nil {
		ix.filters = make(map[string]map[string][]int32)
	}
	for name := range ix.vecs {
		if data, ok := snap.Vectors[name]; ok {
			h, err := vector.ReadHNSW(bytes.NewReader(data))
			if err == nil {
				ix.vecs[name] = h
				continue
			}
			// A pre-arena graph snapshot cannot be adopted in place, but the
			// documents still carry their vectors — fall through and rebuild.
			if !errors.Is(err, vector.ErrLegacyHNSWSnapshot) {
				return nil, fmt.Errorf("index: vector field %q: %w", name, err)
			}
		}
		// No serialized graph: rebuild from stored document vectors.
		for i, d := range ix.docs {
			if v, ok := d.Vectors[name]; ok {
				if err := ix.vecs[name].Add(i, v); err != nil {
					return nil, fmt.Errorf("index: rebuild vector field %q: %w", name, err)
				}
			}
		}
	}
	return ix, nil
}
