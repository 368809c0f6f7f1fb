package textproc

import (
	"strings"
	"testing"
)

// checkTermSet asserts the packed set of text holds exactly the distinct
// analyzed terms, each findable by its delimited form — which only works
// because no term contains a space.
func checkTermSet(t *testing.T, a *Analyzer, text string) {
	t.Helper()
	set := a.TermSet(text)
	want := a.AnalyzeUnique(text)
	members := set.Delimited()
	if len(members) != len(want) {
		t.Fatalf("TermSet(%q) = %q has %d members, want %d", text, set, len(members), len(want))
	}
	for i, d := range members {
		term := d[1 : len(d)-1]
		if strings.Contains(term, " ") {
			t.Fatalf("term %q of %q contains a space", term, text)
		}
		if _, ok := want[term]; !ok {
			t.Fatalf("TermSet(%q) holds %q, not an analyzed term", text, term)
		}
		if i > 0 && members[i-1] >= d {
			t.Fatalf("TermSet(%q) = %q is not sorted", text, set)
		}
		if !set.ContainsDelimited(d) {
			t.Fatalf("TermSet(%q) does not contain its own member %q", text, d)
		}
	}
}

func TestNewTermSet(t *testing.T) {
	cases := []struct {
		terms []string
		want  TermSet
	}{
		{nil, EmptyTermSet},
		{[]string{"b", "a", "b", "c", "a"}, " a b c "},
		{[]string{"err-4032"}, " err-4032 "},
	}
	for _, c := range cases {
		got := NewTermSet(c.terms)
		if got != c.want {
			t.Fatalf("NewTermSet = %q, want %q", got, c.want)
		}
	}
	set := NewTermSet([]string{"cart", "carta", "bonific"})
	for _, probe := range []struct {
		term string
		in   bool
	}{{"cart", true}, {"carta", true}, {"car", false}, {"art", false}, {"bonific", true}, {"bonifico", false}} {
		if got := set.ContainsDelimited(" " + probe.term + " "); got != probe.in {
			t.Fatalf("%q contains %q = %v, want %v", set, probe.term, got, probe.in)
		}
	}
	if got := EmptyTermSet.Delimited(); len(got) != 0 {
		t.Fatalf("empty set members = %q", got)
	}
	if got := TermSet("").Delimited(); len(got) != 0 {
		t.Fatalf("zero set members = %q", got)
	}
}

func TestAnalyzerTermSet(t *testing.T) {
	for _, text := range []string{
		"", "   ", "Il bonifico dell'estero è già arrivato: perché?",
		"bonifico bonifici BONIFICO", "Codice ERR-4032 e PROC_118 v2.3",
	} {
		checkTermSet(t, ItalianFull(), text)
		checkTermSet(t, Raw(), text)
	}
}
