package ssr

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
)

// yieldTranscript drives one index through the fixed schedule of the
// yield-order golden — insert every tuple, remove every third, put them
// back in reverse, remove every fifth, put those back in one
// InsertBatch, and (epoch tier) one forced reseal — and renders every
// yielded delta in yield order, one operation per block. sorted renders
// the same transcript with each operation's deltas sorted, for indexes
// whose within-operation order is not part of the record.
func yieldTranscript(t *testing.T, m Method, u *pdb.XRelation) (ordered, sorted string) {
	t.Helper()
	idx, err := IncrementalOf(m)
	if err != nil {
		t.Fatal(err)
	}
	var ob, sb strings.Builder
	var lines []string
	on := func(d PairDelta) bool {
		sign := "+"
		if d.Dropped {
			sign = "-"
		}
		lines = append(lines, sign+" "+d.Pair.A+","+d.Pair.B)
		return true
	}
	endOp := func(header string) {
		ob.WriteString(header + "\n")
		sb.WriteString(header + "\n")
		for _, l := range lines {
			ob.WriteString(l + "\n")
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l + "\n")
		}
		lines = lines[:0]
	}
	insert := func(x *pdb.XTuple) {
		idx.Insert(x, on)
		endOp("insert " + x.ID)
	}
	remove := func(x *pdb.XTuple) {
		idx.Remove(x.ID, on)
		endOp("remove " + x.ID)
	}

	for _, x := range u.Tuples {
		insert(x)
	}
	var third []*pdb.XTuple
	for i, x := range u.Tuples {
		if i%3 == 0 {
			remove(x)
			third = append(third, x)
		}
	}
	for i := len(third) - 1; i >= 0; i-- {
		insert(third[i])
	}
	var fifth []*pdb.XTuple
	for i, x := range u.Tuples {
		if i%5 == 0 {
			remove(x)
			fifth = append(fifth, x)
		}
	}
	for _, d := range InsertBatch(idx, fifth, nil) {
		on(d.PairDelta)
		lines[len(lines)-1] += fmt.Sprintf(" @%d", d.Source)
	}
	endOp(fmt.Sprintf("batch %d", len(fifth)))
	if e, ok := idx.(EpochIndex); ok {
		e.Reseal(on)
		endOp("reseal")
	}
	return ob.String(), sb.String()
}

// TestYieldOrderGolden pins the order in which every incremental index
// yields its deltas. testdata/yield_order.golden was recorded at the
// commit before the indexes moved onto the shared windowSeq / pairNet
// (regenerate with PDEDUP_UPDATE_GOLDEN=1 only when a yield order is
// meant to change): each method's whole transcript must repeat byte for
// byte, except snm-alternatives, which yielded an arrival's left
// neighbours farthest-first before it shared its siblings' splice and is
// held to the per-operation delta sets instead.
func TestYieldOrderGolden(t *testing.T) {
	u := shuffledUnion(60, 3)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	methods := append(incrementalTestMethods(t, u.Schema)[1:],
		BlockingCluster{Key: def, K: 4, Seed: 1})

	var got strings.Builder
	record := func(row string, m Method, u *pdb.XRelation) {
		ordered, sorted := yieldTranscript(t, m, u)
		fmt.Fprintf(&got, "%s %s deltas=%d ordered=%x sets=%x\n", row, m.Name(),
			strings.Count(ordered, "\n+")+strings.Count(ordered, "\n-"),
			sha256.Sum256([]byte(ordered)), sha256.Sum256([]byte(sorted)))
	}
	for i, m := range methods {
		record(fmt.Sprintf("%02d", i), m, u)
	}
	// The desc rows run the window indexes over the same tuples arriving
	// in descending ID order, so the order in which an index hands out
	// its internal handles is the reverse of ID order: a handle that
	// leaks into the yield order shows here.
	desc := *u
	desc.Tuples = slices.Clone(u.Tuples)
	slices.SortFunc(desc.Tuples, func(a, b *pdb.XTuple) int { return strings.Compare(b.ID, a.ID) })
	for i, m := range methods {
		switch m.(type) {
		case SNMCertain, SNMRanked, SNMAlternatives:
			record(fmt.Sprintf("desc%02d", i), m, &desc)
		}
	}

	path := filepath.Join("testdata", "yield_order.golden")
	if os.Getenv("PDEDUP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d methods, schedule ran %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		g, w := gotLines[i], wantLines[i]
		if strings.Contains(g, " snm-alternatives ") {
			// Sets only: drop the ordered= field on both sides.
			g, w = dropField(g, "ordered="), dropField(w, "ordered=")
		}
		if g != w {
			t.Errorf("yield transcript changed:\n got  %s\n want %s", g, w)
		}
	}
}

// dropField removes the space-separated field with the given prefix.
func dropField(line, prefix string) string {
	fields := strings.Fields(line)
	out := fields[:0]
	for _, f := range fields {
		if !strings.HasPrefix(f, prefix) {
			out = append(out, f)
		}
	}
	return strings.Join(out, " ")
}
