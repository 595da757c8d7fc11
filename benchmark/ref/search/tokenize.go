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
// The index follows the closure's refresh discipline: it is built
// lazily, published as an immutable snapshot through an atomic
// pointer, and keyed to the store version, so reads are lock-free and
// any write invalidates it wholesale. Posting lists reuse the sealed
// store's delta+varint run codec (store.AppendUvarintRun) in one
// shared byte arena.
package search

import (
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
func QueryTerms(q string) []string {
	toks := Tokenize(q)
	seen := make(map[string]bool, len(toks))
	terms := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
		if len(terms) == MaxQueryTerms {
			break
		}
	}
	return terms
}
