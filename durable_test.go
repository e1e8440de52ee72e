package probdedup_test

import (
	"errors"
	"reflect"
	"testing"

	"probdedup"
)

// TestPublicDurableRoundTrip drives the exported durability surface:
// open a durable detector and integrator, ingest, checkpoint, close,
// and reopen — the recovered engines report the same state, the lock
// excludes concurrent openers, and a schema change is refused.
func TestPublicDurableRoundTrip(t *testing.T) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(20, 43))
	u := d.Union()
	def, err := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := probdedup.Options{
		Compare:    []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction:  probdedup.BlockingCertain{Key: def},
		Final:      probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
		Durability: probdedup.Durability{FsyncEvery: 2},
	}

	dir := t.TempDir()
	dd, err := probdedup.OpenDurable(dir, u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range u.Tuples[:12] {
		if err := dd.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := probdedup.OpenDurable(dir, u.Schema, opts, nil); !errors.Is(err, probdedup.ErrStateLocked) {
		t.Fatalf("second opener: %v", err)
	}
	wantPairs := len(dd.Flush().ByPair)
	wantLen := dd.Len()
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dd.Add(u.Tuples[12]); !errors.Is(err, probdedup.ErrDurableClosed) {
		t.Fatalf("add after close: %v", err)
	}

	re, err := probdedup.OpenDurable(dir, u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != wantLen || len(re.Flush().ByPair) != wantPairs {
		t.Fatalf("recovered %d residents / %d pairs, want %d / %d",
			re.Len(), len(re.Flush().ByPair), wantLen, wantPairs)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := probdedup.OpenDurable(dir, u.Schema[:1], probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.Levenshtein},
		Final:   opts.Final,
	}, nil); !errors.Is(err, probdedup.ErrSchemaMismatch) {
		t.Fatalf("schema change: %v", err)
	}

	idir := t.TempDir()
	di, err := probdedup.OpenDurableIntegrator(idir, u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range u.Tuples[:10] {
		if err := di.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	liveR, err := di.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	ri, err := probdedup.OpenDurableIntegrator(idir, u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ri.Close()
	recR, err := ri.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(recR.Entities) != len(liveR.Entities) || len(recR.Uncertain) != len(liveR.Uncertain) {
		t.Fatalf("recovered %d entities / %d uncertain, want %d / %d",
			len(recR.Entities), len(recR.Uncertain), len(liveR.Entities), len(liveR.Uncertain))
	}
}

// durableOps is the logged half of both durable engines: the three
// mutators (each appended to the WAL before it is applied) and the
// lifecycle calls.
type durableOps interface {
	Add(*probdedup.XTuple) error
	AddBatch([]*probdedup.XTuple) error
	Remove(id string) error
	Checkpoint() error
	Seq() uint64
	Close() error
	Abort() error
	Len() int
	ResidentIDs() []string
}

// The durable wrappers promote their read methods from an embedded
// view, so go doc no longer lists them one by one; these assertions pin
// the exported method sets at compile time.
var (
	_ interface {
		durableOps
		Flush() *probdedup.Result
		Stats() probdedup.DetectorStats
		Resident(id string) (*probdedup.XTuple, bool)
	} = (*probdedup.DurableDetector)(nil)
	_ interface {
		durableOps
		Flush() (*probdedup.Resolution, error)
		FlushResult() *probdedup.Result
		Stats() probdedup.IntegratorStats
	} = (*probdedup.DurableIntegrator)(nil)
)

// TestDurableMethodSetsAreClosed: beyond the methods pinned above the
// wrappers export nothing — in particular no second Add/Remove path and
// no accessor handing out the wrapped engine, either of which would let
// a caller mutate state around the log.
func TestDurableMethodSetsAreClosed(t *testing.T) {
	for typ, want := range map[reflect.Type]int{
		reflect.TypeOf((*probdedup.DurableDetector)(nil)):   12,
		reflect.TypeOf((*probdedup.DurableIntegrator)(nil)): 12,
	} {
		if got := typ.NumMethod(); got != want {
			var names []string
			for i := 0; i < got; i++ {
				names = append(names, typ.Method(i).Name)
			}
			t.Errorf("%v exports %d methods %v, want the %d pinned above", typ, got, names, want)
		}
	}
}
