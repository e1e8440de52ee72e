package core

import (
	"testing"

	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
)

// perPairBlocking is BlockingCertain under another type: it is not the
// method ssr.IncrementalFiltered recognizes, so a Detector over it keeps
// the filter and asks it one pair at a time — the path BlockingCertain
// itself took before its index admitted arrivals a block at a time.
type perPairBlocking struct{ ssr.BlockingCertain }

// counters are the DetectorStats fields the block scan must keep.
type counters struct {
	Enumerated, Filtered, Compared, Dropped, Live, Matches, Possible int
}

func countersOf(d *Detector) counters {
	st := d.Stats()
	return counters{st.Enumerated, st.Filtered, st.Compared, st.Dropped, st.Live, st.Matches, st.Possible}
}

// TestDetectorBlockAdmitKeepsCounters runs one fixed schedule — an
// AddBatch with several tuples per block, single Adds, removals from
// the front, middle and back of one block, a snapshot → restore,
// re-adds of the removed IDs and a last AddBatch — through a Detector
// whose BlockingCertain index admits arrivals against their blocks and
// one that asks the filter per pair. After every step both must flush
// the same result and hold the same counters, and those must be the
// counters pinned below: Enumerated, Filtered and Compared as the
// per-pair path recorded them before the block scan existed, Live and
// Dropped counting M and P pairs only (a U pair is no state).
// Restoring leaves Enumerated and Filtered at 0, as it always did:
// restore runs no cascade.
func TestDetectorBlockAdmitKeepsCounters(t *testing.T) {
	u := shuffledUnion(t, 60, 29)
	def, err := keys.ParseDef("name:1", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	xs := u.Tuples
	byID := map[string]*pdb.XTuple{}
	var block []string // the block of xs[0] among the first 50 arrivals
	for _, x := range xs[:50] {
		byID[x.ID] = x
		if def.FromValues(fusion.MostProbable{}.ResolveX(x)) == def.FromValues(fusion.MostProbable{}.ResolveX(xs[0])) {
			block = append(block, x.ID)
		}
	}
	if len(xs) <= 50 || len(block) < 5 {
		t.Fatalf("fixture too small: %d tuples, a block of %d", len(xs), len(block))
	}
	removed := []string{block[0], block[len(block)/2], block[len(block)-1]}

	type side struct {
		d    *Detector
		opts Options
	}
	build := func(m ssr.Method) *side {
		opts := incrementalOpts(m)
		opts.PreFilter = true
		d, err := NewDetector(u.Schema, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &side{d, opts}
	}
	scan, pair := build(ssr.BlockingCertain{Key: def}), build(perPairBlocking{ssr.BlockingCertain{Key: def}})
	if scan.d.filter != nil || pair.d.filter == nil {
		t.Fatal("only the BlockingCertain index should hold the filter")
	}
	steps := []struct {
		name string
		op   func(s *side) error
		want counters
	}{
		{"AddBatch", func(s *side) error { return s.d.AddBatch(xs[:40]) }, counters{90, 41, 49, 0, 10, 0, 10}},
		{"Add", func(s *side) error {
			for _, x := range xs[40:50] {
				if err := s.d.Add(x); err != nil {
					return err
				}
			}
			return nil
		}, counters{141, 62, 79, 0, 13, 0, 13}},
		{"Remove", func(s *side) error {
			for _, id := range removed {
				if err := s.d.Remove(id); err != nil {
					return err
				}
			}
			return nil
		}, counters{141, 62, 79, 1, 12, 0, 12}},
		{"restore", func(s *side) (err error) {
			s.d, err = RestoreDetector(s.opts, nil, s.d.SnapshotState())
			return err
		}, counters{0, 0, 79, 1, 12, 0, 12}},
		{"re-Add", func(s *side) error {
			for _, id := range removed {
				if err := s.d.Add(byID[id]); err != nil {
					return err
				}
			}
			return nil
		}, counters{9, 4, 84, 1, 13, 0, 13}},
		{"AddBatch", func(s *side) error { return s.d.AddBatch(xs[50:]) }, counters{287, 118, 248, 1, 35, 7, 28}},
	}
	for _, step := range steps {
		for _, s := range []*side{scan, pair} {
			if err := step.op(s); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		got := countersOf(scan.d)
		if ref := countersOf(pair.d); got != ref {
			t.Fatalf("%s: block scan %+v, per-pair filter %+v", step.name, got, ref)
		}
		sameResult(t, scan.d.Flush(), pair.d.Flush())
		if got != step.want {
			t.Errorf("%s: counters %+v, recorded %+v", step.name, got, step.want)
		}
	}
}
