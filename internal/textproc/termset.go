package textproc

import (
	"sort"
	"strings"
)

// TermSet is a set of distinct analyzed terms packed into one string: the
// terms in sorted order, each followed by a space, after a leading space —
// " t1 t2 … tn ". The empty set is EmptyTermSet (" "). A term never
// contains a space (the tokenizer splits on every rune that is not a
// letter, a digit or an inner connector), so each term's delimited form
// " t " occurs in the packed string exactly when the term is a member.
//
// Packing costs one allocation per set and no per-term headers, which is
// what lets the index keep a set per stored chunk. Sorting makes the packed
// form canonical: two sets with the same members are equal strings however
// they were built. The zero TermSet ("") is not a set; callers use it to
// mean "not computed".
type TermSet string

// EmptyTermSet is the set with no terms.
const EmptyTermSet TermSet = " "

// NewTermSet packs terms (any order, duplicates allowed) into a TermSet.
// It sorts terms in place.
func NewTermSet(terms []string) TermSet {
	sort.Strings(terms)
	n := 1
	for i, t := range terms {
		if i == 0 || t != terms[i-1] {
			n += len(t) + 1
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte(' ')
	for i, t := range terms {
		if i > 0 && t == terms[i-1] {
			continue
		}
		b.WriteString(t)
		b.WriteByte(' ')
	}
	return TermSet(b.String())
}

// TermSet returns the set of distinct analyzed terms of text.
func (a *Analyzer) TermSet(text string) TermSet {
	return NewTermSet(a.AnalyzeTerms(text))
}

// Delimited returns every member of s in its delimited form " t ", in
// sorted order. Each is a substring of s, so no term is copied; pass them
// to ContainsDelimited to test membership in another set.
func (s TermSet) Delimited() []string {
	str := string(s)
	if len(str) < 2 {
		return nil
	}
	out := make([]string, 0, strings.Count(str, " ")-1)
	for start := 0; start+1 < len(str); {
		end := start + 1 + strings.IndexByte(str[start+1:], ' ')
		out = append(out, str[start:end+1])
		start = end
	}
	return out
}

// ContainsDelimited reports whether s holds the term whose delimited form
// (see Delimited) is d.
func (s TermSet) ContainsDelimited(d string) bool {
	return strings.Contains(string(s), d)
}
