// Package experiments regenerates every checkable figure and worked example
// of the paper (E01–E10) plus the synthetic evaluation its verification
// step implies (S01–S05, A01–A02). The experiment IDs follow
// EXPERIMENTS.md, the committed record cmd/pdbench prints and the root
// golden test regenerates.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/worlds"
	"probdedup/internal/xmatch"
)

// PaperKey is the paper's sorting key: first three characters of name plus
// first two of job.
func PaperKey() keys.Def {
	return keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2})
}

// Fig14Key is the paper's blocking key: first character of name and job.
func Fig14Key() keys.Def {
	return keys.NewDef(keys.Part{Attr: 0, Prefix: 1}, keys.Part{Attr: 1, Prefix: 1})
}

// PaperModel is the per-alternative decision model of the Sec. IV examples.
func PaperModel() decision.Model {
	return decision.SimpleModel{
		Phi: decision.WeightedSum(0.8, 0.2),
		T:   decision.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
}

// PaperMatcher compares both attributes with normalized Hamming.
func PaperMatcher() *avm.Matcher {
	return avm.NewMatcher(strsim.NormalizedHamming, strsim.NormalizedHamming)
}

// internRelation annotates every value of r, in place, with its symbol
// in t. A Matcher memoizes by symbol pair only, so relations compared
// through one matcher must be interned into one table.
func internRelation(t *sym.Table, r *pdb.Relation) {
	for _, tu := range r.Tuples {
		for i := range tu.Attrs {
			tu.Attrs[i] = prepare.InternDist(t, tu.Attrs[i])
		}
	}
}

// E01 reproduces the Sec. IV-A worked example (attribute value matching and
// tuple similarity on ℛ1 × ℛ2).
func E01() string {
	r1, r2 := paperdata.R1(), paperdata.R2()
	t11, t22 := r1.TupleByID("t11"), r2.TupleByID("t22")
	nameSim := avm.Sim(strsim.NormalizedHamming, t11.Attrs[0], t22.Attrs[0])
	jobSim := avm.Sim(strsim.NormalizedHamming, t11.Attrs[1], t22.Attrs[1])
	phi := decision.WeightedSum(0.8, 0.2)
	tupleSim := phi(avm.Vector{nameSim, jobSim})
	var b strings.Builder
	fmt.Fprintf(&b, "E01 — attribute value matching (Sec. IV-A, Fig. 4)\n")
	tab := verify.NewTable("quantity", "measured", "paper")
	tab.AddRow("sim(t11.name, t22.name)", nameSim, "0.9")
	tab.AddRow("sim(machinist, mechanic)", strsim.NormalizedHamming("machinist", "mechanic"), "5/9")
	tab.AddRow("sim(t11.job, t22.job)", jobSim, "0.59 (rounded; exact 53/90)")
	tab.AddRow("sim(t11, t22) = 0.8c1+0.2c2", tupleSim, "0.838 (with rounded 0.59)")
	b.WriteString(tab.String())
	return b.String()
}

// E02 reproduces Fig. 7: the possible worlds of {t32, t42} and the
// conditioning event B.
func E02() string {
	t32 := paperdata.R3().TupleByID("t32")
	t42 := paperdata.R4().TupleByID("t42")
	xr := worlds.PairRelation([]string{"name", "job"}, t32, t42)
	var b strings.Builder
	fmt.Fprintf(&b, "E02 — possible worlds of {t32,t42} (Fig. 7), P(B)=%.4f (paper: 0.72)\n",
		worlds.MembershipProbability(xr))
	tab := verify.NewTable("world (t32 | t42)", "P", "P(world|B)")
	ws, _ := worlds.Enumerate(xr, false, 0)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].P > ws[j].P })
	pb := worlds.MembershipProbability(xr)
	for _, w := range ws {
		label := choiceLabel(w.Choices[0]) + " | " + choiceLabel(w.Choices[1])
		cond := "-"
		if w.Contains(0) && w.Contains(1) {
			cond = fmt.Sprintf("%.4f", w.P/pb)
		}
		tab.AddRow(label, w.P, cond)
	}
	b.WriteString(tab.String())
	return b.String()
}

func choiceLabel(c worlds.Choice) string {
	if c.Alt < 0 {
		return "absent"
	}
	parts := make([]string, len(c.Values))
	for i, v := range c.Values {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// E03 reproduces the similarity-based derivation example (Eq. 6):
// sim(t32,t42) = 7/15.
func E03() (float64, string) {
	t32 := paperdata.R3().TupleByID("t32")
	t42 := paperdata.R4().TupleByID("t42")
	src := xmatch.NewPairSource(PaperMatcher(), t32, t42)
	sim := xmatch.SimilarityBased{Conditioned: true}.Sim(src, PaperModel())
	return sim, fmt.Sprintf("E03 — similarity-based derivation (Eq. 6): sim(t32,t42) = %.6f (paper: 7/15 = %.6f)\n",
		sim, 7.0/15)
}

// E04 reproduces the decision-based derivation example (Eq. 7–9):
// P(m)=3/9, P(u)=4/9, sim = 0.75.
func E04() (pm, pu, sim float64, out string) {
	t32 := paperdata.R3().TupleByID("t32")
	t42 := paperdata.R4().TupleByID("t42")
	src := xmatch.NewPairSource(PaperMatcher(), t32, t42)
	d := xmatch.DecisionBased{Conditioned: true}
	pm, pu = d.Probabilities(src, PaperModel())
	sim = d.Sim(src, PaperModel())
	out = fmt.Sprintf("E04 — decision-based derivation (Eq. 7–9): P(m)=%.4f P(u)=%.4f sim=%.4f (paper: 3/9, 4/9, 0.75)\n",
		pm, pu, sim)
	return
}

// E05 reproduces Fig. 9: the per-world sorting orders of the multi-pass
// approach for the two worlds of Fig. 8.
func E05() string {
	xr := paperdata.R34()
	def := PaperKey()
	var b strings.Builder
	b.WriteString("E05 — multi-pass sorting orders (Figs. 8–9)\n")
	show := func(label string, want map[string][2]string) {
		worlds.ForEach(xr, true, func(w worlds.World) bool {
			r := worlds.Materialize(xr, w)
			if !worldMatches(r, want) {
				return true
			}
			fmt.Fprintf(&b, "  world %s:", label)
			type ent struct{ key, id string }
			var ents []ent
			for _, t := range r.Tuples {
				ents = append(ents, ent{def.FromCertainTuple(t), t.ID})
			}
			sort.SliceStable(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
			for _, e := range ents {
				fmt.Fprintf(&b, "  %s(%s)", e.key, e.id)
			}
			b.WriteString("\n")
			return false
		})
	}
	show("I1", map[string][2]string{
		"t31": {"John", "pilot"}, "t32": {"Tim", "mechanic"},
		"t41": {"Johan", "pianist"}, "t42": {"Tom", "mechanic"}, "t43": {"Sean", "pilot"},
	})
	show("I2", map[string][2]string{
		"t31": {"Johan", "musician"}, "t32": {"Jim", "mechanic"},
		"t41": {"John", "pilot"}, "t42": {"Tom", "mechanic"}, "t43": {"John", ""},
	})
	return b.String()
}

func worldMatches(r *pdb.Relation, want map[string][2]string) bool {
	if len(r.Tuples) != len(want) {
		return false
	}
	for _, tu := range r.Tuples {
		w, ok := want[tu.ID]
		if !ok {
			return false
		}
		name, job := tu.Attrs[0].String(), tu.Attrs[1].String()
		if job == "⊥" {
			job = ""
		}
		if name != w[0] || job != w[1] {
			return false
		}
	}
	return true
}

// E06 reproduces Fig. 10 (certain keys by conflict resolution) and checks
// the subset property w.r.t. multi-pass.
func E06() string {
	xr := paperdata.R34()
	def := PaperKey()
	r := fusion.ResolveRelation(fusion.MostProbable{}, xr)
	type ent struct{ key, id string }
	var ents []ent
	for _, t := range r.Tuples {
		ents = append(ents, ent{def.FromCertainTuple(t), t.ID})
	}
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	var b strings.Builder
	b.WriteString("E06 — certain keys via most probable alternatives (Fig. 10)\n  order:")
	for _, e := range ents {
		fmt.Fprintf(&b, "  %s(%s)", e.key, e.id)
	}
	certain := ssr.Candidates(ssr.SNMCertain{Key: def, Window: 2}, xr)
	multi := ssr.Candidates(ssr.SNMMultiPass{Key: def, Window: 2, Select: ssr.AllWorlds}, xr)
	subset := true
	for p := range certain {
		if !multi[p] {
			subset = false
		}
	}
	fmt.Fprintf(&b, "\n  matchings: certain=%d multi-pass=%d subset=%v (paper: always a subset)\n",
		len(certain), len(multi), subset)
	return b.String()
}

// E07 reproduces Figs. 11–12: sorting alternatives with window 2 gives five
// matchings, each exactly once.
func E07() string {
	m := ssr.SNMAlternatives{Key: PaperKey(), Window: 2}
	xr := paperdata.R34()
	var b strings.Builder
	b.WriteString("E07 — sorting alternatives (Figs. 11–12)\n  kept entries:")
	for _, e := range m.SortedEntries(xr) {
		fmt.Fprintf(&b, "  %s(%s)", e.Key, e.ID)
	}
	cands := ssr.Candidates(m, xr)
	fmt.Fprintf(&b, "\n  matchings (%d, paper: 5):", len(cands))
	for _, p := range cands.Sorted() {
		fmt.Fprintf(&b, "  (%s,%s)", p.A, p.B)
	}
	b.WriteString("\n")
	return b.String()
}

// E08 reproduces Fig. 13: the ranked order of ℛ34 under uncertain keys.
func E08() string {
	m := ssr.SNMRanked{Key: PaperKey(), Window: 2}
	ids := m.RankedIDs(paperdata.R34())
	return fmt.Sprintf("E08 — ranking by uncertain keys (Fig. 13): order %v (paper: [t32 t31 t41 t43 t42])\n", ids)
}

// E09 reproduces Fig. 14: blocking with alternative key values.
func E09() string {
	m := ssr.BlockingAlternatives{Key: Fig14Key()}
	xr := paperdata.R34()
	blocks := m.Blocks(xr)
	var names []string
	for k := range blocks {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("E09 — blocking with alternative keys (Fig. 14)\n")
	for _, k := range names {
		members := append([]string(nil), blocks[k]...)
		sort.Strings(members)
		fmt.Fprintf(&b, "  block %-3q %v\n", k, members)
	}
	cands := ssr.Candidates(m, xr)
	fmt.Fprintf(&b, "  matchings (%d, paper: 3):", len(cands))
	for _, p := range cands.Sorted() {
		fmt.Fprintf(&b, "  (%s,%s)", p.A, p.B)
	}
	b.WriteString("\n")
	return b.String()
}

// E10 demonstrates the knowledge-based identification rule of Fig. 1 inside
// the two-step decision model of Figs. 2–3.
func E10() string {
	rules, err := decision.ParseRules(
		"IF name > 0.8 AND job > 0.5 THEN DUPLICATES WITH CERTAINTY=0.8",
		[]string{"name", "job"})
	if err != nil {
		panic(err)
	}
	model := decision.RuleModel{Rules: rules, T: decision.Thresholds{Lambda: 0.7, Mu: 0.7}}
	r1, r2 := paperdata.R1(), paperdata.R2()
	symtab := sym.NewTable(0)
	internRelation(symtab, r1)
	internRelation(symtab, r2)
	matcher := PaperMatcher()
	var b strings.Builder
	b.WriteString("E10 — identification rule of Fig. 1 over ℛ1 × ℛ2\n")
	tab := verify.NewTable("pair", "c1(name)", "c2(job)", "certainty", "η")
	for _, t1 := range r1.Tuples {
		for _, t2 := range r2.Tuples {
			c := matcher.CompareTuples(t1, t2)
			sim := model.Similarity(c)
			tab.AddRow(t1.ID+","+t2.ID, c[0], c[1], sim, model.Classify(sim).String())
		}
	}
	b.WriteString(tab.String())
	return b.String()
}
