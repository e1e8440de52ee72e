// Package sym is the run-wide symbol plane: it interns every
// standardized attribute value (Sec. III-A output) to a dense uint32
// symbol and precomputes, once per distinct value instead of once per
// comparison, a 16-byte pointer-free record (rune length and a 64-bit
// gram signature) and the padded q-gram multiset, which the table keeps
// apart from the record. Downstream layers thread the symbols
// end-to-end: the avm similarity cache keys value pairs by (attr, symA,
// symB) integer triples instead of strings, and the ssr candidate
// pre-filter derives sound similarity upper bounds from the records
// without ever touching the strings (the PPJoin-style length + q-gram
// filtering in front of verification, ROADMAP item 4a), reading the
// grams only for the few pairs the records cannot settle.
package sym

import (
	"math"
	"sync"
)

// NoSym is the reserved "not interned" symbol. Symbols handed out by a
// Table start at 1, so a zero-valued annotation is always detectable.
const NoSym uint32 = 0

// Stats is the precomputed record of one interned value: 16 bytes and
// no pointer, so the pre-filter keeps dense slices of them that the
// garbage collector never scans. The value's padded q-grams live in the
// table (Table.Grams), and their count follows from Len (GramCount). A
// value whose rune length does not fit Len gets the zero Stats, which
// every bound reads as "no information".
type Stats struct {
	// Sym is the symbol the stats belong to (NoSym in the zero Stats).
	Sym uint32
	// Len is the value's rune length.
	Len uint32
	// Sig is a 64-bit membership signature over the distinct grams (0
	// when the table keeps none): two values whose signatures do not
	// intersect share no gram, so a single AND rejects before any
	// multiset merge (the O(1) prefix filter test).
	Sig uint64
}

// GramCount returns the size of the value's padded q-gram multiset:
// n+q−1 for a value of n ≥ 1 runes, 0 for the empty value or q < 1.
func (s *Stats) GramCount(q int) int {
	if s.Len == 0 || q < 1 {
		return 0
	}
	return int(s.Len) + q - 1
}

// Table interns strings to dense symbols and owns their Stats. A Table
// is safe for concurrent use; in the detection engine it lives as long
// as the run (batch) or the detector (online), so equal values always
// map to equal symbols and the symbol-keyed similarity cache never
// aliases distinct values. Symbols are never reused; the table grows
// with the number of distinct values ever interned.
type Table struct {
	q  int
	mu sync.RWMutex
	// ids maps the value string to its 1-based symbol.
	ids map[string]uint32
	// vals, stats and grams are indexed by symbol−1 (grams is empty when
	// q = 0); a slice per symbol lets one symbol's grams be dropped.
	vals  []string
	stats []Stats
	grams [][]uint64
}

// NewTable builds an empty symbol table. q > 0 precomputes the padded
// q-gram multiset and gram signature of every interned value; q ≤ 0
// records only rune lengths (cheaper when no pre-filter consumes the
// grams).
func NewTable(q int) *Table {
	if q < 0 {
		q = 0
	}
	return &Table{q: q, ids: map[string]uint32{}}
}

// Q returns the gram size the table precomputes (0 = none).
func (t *Table) Q() int { return t.q }

// Len returns the number of interned values.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.vals)
}

// Intern returns the symbol of s, interning it (and precomputing its
// Stats) on first sight. Equal strings always return equal symbols.
func (t *Table) Intern(s string) uint32 {
	t.mu.RLock()
	sy, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return sy
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sy, ok := t.ids[s]; ok {
		return sy
	}
	sy = uint32(len(t.vals) + 1)
	var grams []uint64
	if t.q > 0 {
		grams = PackedQGrams(s, t.q)
		t.grams = append(t.grams, grams)
	}
	t.ids[s] = sy
	t.vals = append(t.vals, s)
	t.stats = append(t.stats, record(sy, runeLen(s), grams))
	return sy
}

// record builds the Stats of symbol sy, a value of n runes with the
// given grams: the zero Stats when n does not fit Len, never a
// truncated length.
func record(sy uint32, n int, grams []uint64) Stats {
	if uint64(n) > math.MaxUint32 {
		return Stats{}
	}
	return Stats{Sym: sy, Len: uint32(n), Sig: GramSig(grams)}
}

// Lookup returns the symbol of s without interning it.
func (t *Table) Lookup(s string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sy, ok := t.ids[s]
	return sy, ok
}

// Stats returns the precomputed record of sym (the zero Stats for NoSym
// or an unknown symbol).
func (t *Table) Stats(sym uint32) Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if sym == NoSym || int(sym) > len(t.stats) {
		return Stats{}
	}
	return t.stats[sym-1]
}

// Grams returns the sorted packed q-gram multiset of sym's value (see
// PackedQGrams; exact for q ≤ MaxExactQ, hashed above): nil for NoSym,
// an unknown symbol, the empty value or a table without grams. The
// slice is shared and read-only.
func (t *Table) Grams(sym uint32) []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return gramsOf(t.grams, sym)
}

func gramsOf(grams [][]uint64, sym uint32) []uint64 {
	if sym == NoSym || int(sym) > len(grams) {
		return nil
	}
	return grams[sym-1]
}

// GramView reads gram multisets without taking the table's lock per
// lookup: it holds the table's per-symbol gram index as it stood when
// the view was taken, under one read lock. Interning only appends to
// that index and never writes a multiset again, so the view stays valid
// while the table grows; a symbol interned after the view was taken is
// looked up through Grams.
type GramView struct {
	t     *Table
	grams [][]uint64
}

// GramView returns a view of the table's gram multisets as of now.
func (t *Table) GramView() GramView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return GramView{t: t, grams: t.grams}
}

// Grams returns what Table.Grams returns for sym.
func (v GramView) Grams(sym uint32) []uint64 {
	if int(sym) > len(v.grams) {
		return v.t.Grams(sym)
	}
	return gramsOf(v.grams, sym)
}

// Str returns the canonical string of sym ("" for NoSym or an unknown
// symbol). Annotating values with the canonical instance dedups the
// backing string storage of skewed relations.
func (t *Table) Str(sym uint32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if sym == NoSym || int(sym) > len(t.vals) {
		return ""
	}
	return t.vals[sym-1]
}
