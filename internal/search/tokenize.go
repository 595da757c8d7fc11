// Package search is the keyword front door: an inverted index over
// entity names, synonym (≈) classes and fact neighborhoods, plus a
// ranker that turns free text into ranked browsing entry points.
//
// The paper assumes the user already knows an entity to browse from;
// at production scale users arrive with free text. Search bridges the
// gap: a keyword query returns candidate entities scored by term match
// quality, taxonomy proximity and hub centrality, each a seed for the
// navigation session the rest of the system serves (Mragyati's
// keyword-search-over-databases ranking, Kahng et al.'s ranked entry
// points).
//
// The index follows the closure's refresh discipline: it is brought
// up to date lazily, published as an immutable snapshot through an
// atomic pointer, and keyed to the store version, so reads are
// lock-free. Like the closure and the subgoal cache, it consumes
// Store.ChangesSince: a write costs the next query only the documents
// of the entities it touched, re-derived into an overlay on top of
// the last full build, which is redone only when the overlay outgrows
// the store's 1/16 fold rule. Posting lists reuse the sealed store's
// delta+varint run codec (store.AppendUvarintRun) in one shared byte
// arena.
package search

import (
	"slices"
	"strings"
	"unicode"
)

// MaxTokenRunes caps a single token; longer tokens are truncated, so
// adversarially long inputs cost bounded index and query work while
// retaining their prefix. 64 runes is far beyond any real entity name.
const MaxTokenRunes = 64

// MaxQueryTerms caps the number of query terms Search considers; extra
// terms are dropped. Bounds per-query work against adversarial input.
const MaxQueryTerms = 16

// Tokenize normalizes free text into index/query tokens: lowercase,
// split on any rune that is not a letter or digit (so quotes, ≈, -, _
// and punctuation are separators), tokens truncated at MaxTokenRunes.
// It is total — any input, including empty, oversized or arbitrary
// Unicode, yields a (possibly empty) token list — and idempotent:
// tokenizing the space-join of its output returns the same tokens.
func Tokenize(s string) []string {
	var out []string
	var b strings.Builder
	n := 0
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
		n = 0
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			flush()
			continue
		}
		if n < MaxTokenRunes {
			b.WriteRune(unicode.ToLower(r))
			n++
		}
	}
	flush()
	return out
}

// QueryTerms tokenizes a query and deduplicates the terms in first
// occurrence order, capped at MaxQueryTerms. Both the indexed search
// path and the brute-force oracle scan score queries through this one
// function, so "a a b" and "a b" rank identically on both.
func QueryTerms(q string) []string { return distinct(Tokenize(q)) }

// distinct deduplicates toks in place in first occurrence order,
// capped at MaxQueryTerms. It is what QueryTerms does after
// tokenizing, and what turns an entity name into its exact-name key.
func distinct(toks []string) []string {
	terms := toks[:0]
	for _, t := range toks {
		if !slices.Contains(terms, t) {
			terms = append(terms, t)
		}
		if len(terms) == MaxQueryTerms {
			break
		}
	}
	return terms
}
