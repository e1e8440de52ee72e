package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"probdedup"
	"probdedup/internal/paperdata"
)

// writeFixtures writes the paper relations into a temp dir and returns the
// file paths.
func writeFixtures(t *testing.T) (r3Path, r4Path, r1Path, jsonPath string) {
	t.Helper()
	dir := t.TempDir()
	r3Path = filepath.Join(dir, "r3.pdb")
	r4Path = filepath.Join(dir, "r4.pdb")
	r1Path = filepath.Join(dir, "r1.pdb")
	jsonPath = filepath.Join(dir, "r3.json")

	write := func(path string, enc func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
	}
	write(r3Path, func(f *os.File) error { return probdedup.EncodeXRelation(f, paperdata.R3()) })
	write(r4Path, func(f *os.File) error { return probdedup.EncodeXRelation(f, paperdata.R4()) })
	write(r1Path, func(f *os.File) error { return probdedup.EncodeRelation(f, paperdata.R1()) })
	write(jsonPath, func(f *os.File) error { return probdedup.EncodeXRelationJSON(f, paperdata.R3()) })
	return
}

func TestRunPaperUnion(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-v", r3, r4}, strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "compared 10 of 10 pairs") {
		t.Fatalf("output:\n%s", s)
	}
	if !strings.Contains(s, "matches=") {
		t.Fatalf("missing summary:\n%s", s)
	}
}

func TestRunWithReduction(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	var out, errOut bytes.Buffer
	code := run([]string{
		"-key", "name:3+job:2", "-reduce", "snm-alternatives", "-window", "2",
		"-derive", "decision", "-lambda", "0.5", "-mu", "1.0", r3, r4,
	}, strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "compared 5 of 10 pairs") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunMixedFormats(t *testing.T) {
	// Text relation + JSON x-relation union.
	_, _, r1, jsonR3 := writeFixtures(t)
	var out, errOut bytes.Buffer
	code := run([]string{r1, jsonR3}, strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "compared 10 of 10 pairs") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunStream(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)

	// The streaming path must report the same counts as the
	// materialized one.
	var matOut, errOut bytes.Buffer
	if code := run([]string{r3, r4}, strings.NewReader(""), &matOut, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	// The worker count changes nothing on stdout, -v footer included.
	streamed := map[string]string{}
	for _, workers := range []string{"1", "4"} {
		var out bytes.Buffer
		errOut.Reset()
		code := run([]string{"-stream", "-v", "-workers", workers, r3, r4}, strings.NewReader(""), &out, &errOut)
		if code != 0 {
			t.Fatalf("workers=%s exit %d: %s", workers, code, errOut.String())
		}
		s := out.String()
		if !strings.Contains(s, "compared 10 of 10 pairs") {
			t.Fatalf("workers=%s output:\n%s", workers, s)
		}
		// Same summary line as the materialized run.
		matSummary := matOut.String()
		matSummary = matSummary[strings.LastIndex(matSummary, "matches="):]
		if !strings.Contains(s, strings.TrimSpace(matSummary)) {
			t.Fatalf("workers=%s: summary diverges from materialized run:\n%s\nvs\n%s", workers, s, matOut.String())
		}
		streamed[workers] = s
	}
	if streamed["1"] != streamed["4"] {
		t.Fatalf("stdout differs between -workers 1 and 4:\n%s\nvs\n%s", streamed["1"], streamed["4"])
	}

	// Streaming errors surface with a non-zero exit.
	var out bytes.Buffer
	errOut.Reset()
	if code := run([]string{"-stream", "-lambda", "1", "-mu", "0", r3}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("want non-zero exit for bad thresholds in stream mode")
	}
}

func TestRunWorkersAndDerivations(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	for _, derive := range []string{"similarity", "decision", "eta", "mpw", "max"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-derive", derive, "-workers", "4", r3, r4}, strings.NewReader(""), &out, &errOut)
		if code != 0 {
			t.Fatalf("derive=%s exit %d: %s", derive, code, errOut.String())
		}
	}
}

// TestRunBlockingCluster drives the blocking-cluster reduction through
// the CLI with explicit -k and -seed, in batch mode and online under
// -follow (the bounded-staleness tier).
func TestRunBlockingCluster(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	var out, errOut bytes.Buffer
	code := run([]string{
		"-key", "name:3+job:2", "-reduce", "blocking-cluster", "-k", "2", "-seed", "7", r3, r4,
	}, strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "compared") {
		t.Fatalf("output:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	stdin := strings.NewReader(`{"id":"x","attrs":[[{"v":"Tim"}],[{"v":"pilot"}]]}` + "\n")
	code = run([]string{
		"-follow", "-key", "name:3+job:2", "-reduce", "blocking-cluster", "-k", "2", r3, r4,
	}, stdin, &out, &errOut)
	if code != 0 {
		t.Fatalf("follow exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "resident 6 tuples") {
		t.Fatalf("follow output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	r3, _, _, _ := writeFixtures(t)
	cases := []struct {
		name string
		args []string
	}{
		{"no files", []string{}},
		{"too many files", []string{r3, r3, r3}},
		{"missing file", []string{"/nonexistent.pdb"}},
		{"bad compare", []string{"-compare", "nope", r3}},
		{"bad derive", []string{"-derive", "nope", r3}},
		{"reduce without key", []string{"-reduce", "snm-certain", r3}},
		{"bad reduce", []string{"-key", "name:3", "-reduce", "nope", r3}},
		{"bad key", []string{"-key", "zzz:3", "-reduce", "snm-certain", r3}},
		{"bad flag", []string{"-definitely-not-a-flag", r3}},
		{"k with other reduce", []string{"-key", "name:3", "-reduce", "snm-certain", "-k", "2", r3}},
		{"seed with other reduce", []string{"-key", "name:3", "-reduce", "snm-certain", "-seed", "2", r3}},
		{"negative k", []string{"-key", "name:3", "-reduce", "blocking-cluster", "-k", "-1", r3}},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := run(c.args, strings.NewReader(""), &out, &errOut); code == 0 {
			t.Errorf("%s: want non-zero exit", c.name)
		}
	}
}

// TestRunRejectsBadShapeValues: -worlds below 1 compares nothing under
// snm-multipass, a -window below 2 was silently run as 2, a negative
// -workers as 1, and per-alternative thresholds that are NaN or
// inverted reclassify every pair, so each exits 2 (usage) or 1
// (configuration) instead of printing a silently wrong run.
func TestRunRejectsBadShapeValues(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"zero worlds", []string{"-key", "name:3", "-reduce", "snm-multipass", "-worlds", "0", r3, r4}, 2},
		{"negative worlds", []string{"-key", "name:3", "-reduce", "snm-multipass", "-worlds", "-1", r3, r4}, 2},
		{"zero window", []string{"-key", "name:3", "-reduce", "snm-certain", "-window", "0", r3, r4}, 2},
		{"window of one", []string{"-key", "name:3", "-reduce", "snm-certain", "-window", "1", r3, r4}, 2},
		{"negative window", []string{"-key", "name:3", "-reduce", "snm-certain", "-window", "-3", r3, r4}, 2},
		{"negative workers", []string{"-workers", "-2", r3, r4}, 2},
		{"inverted alt thresholds", []string{"-derive", "decision", "-alt-lambda", "0.9", "-alt-mu", "0.1", r3, r4}, 1},
		{"NaN alt threshold", []string{"-derive", "decision", "-alt-lambda", "NaN", r3, r4}, 1},
		{"inverted alt thresholds online", []string{"-follow", "-alt-lambda", "0.9", "-alt-mu", "0.1", r3}, 1},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := run(c.args, strings.NewReader(""), &out, &errOut); code != c.code {
			t.Errorf("%s: exit %d, want %d (stdout %q, stderr %q)", c.name, code, c.code, out.String(), errOut.String())
		}
	}
}

func TestDecodeAnySniffing(t *testing.T) {
	var text bytes.Buffer
	if err := probdedup.EncodeRelation(&text, paperdata.R1()); err != nil {
		t.Fatal(err)
	}
	xr, err := decodeAny(text.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(xr.Tuples) != 3 {
		t.Fatalf("text relation: %d tuples", len(xr.Tuples))
	}

	var jsonBuf bytes.Buffer
	if err := probdedup.EncodeRelationJSON(&jsonBuf, paperdata.R1()); err != nil {
		t.Fatal(err)
	}
	xr2, err := decodeAny(jsonBuf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(xr2.Tuples) != 3 {
		t.Fatalf("json relation: %d tuples", len(xr2.Tuples))
	}

	// Adversarial: a plain relation whose string *value* contains
	// "xtuples" must still decode as a relation — the sniff reads the
	// top-level key, not the raw payload.
	adversarial := `{"name":"r","schema":["note"],"tuples":[` +
		`{"id":"a","p":1,"attrs":[[{"v":"contains \"xtuples\" in a value"}]]}]}`
	xr3, err := decodeAny(adversarial)
	if err != nil {
		t.Fatalf("adversarial relation misclassified: %v", err)
	}
	if len(xr3.Tuples) != 1 {
		t.Fatalf("adversarial relation: %d tuples", len(xr3.Tuples))
	}

	// And a real x-relation still sniffs as one.
	var xjson bytes.Buffer
	if err := probdedup.EncodeXRelationJSON(&xjson, paperdata.R3()); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAny(xjson.String()); err != nil {
		t.Fatalf("xrelation json: %v", err)
	}

	// Malformed JSON fails up front with a json error, not a format
	// guess.
	if _, err := decodeAny(`{"name": `); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestRunFollow(t *testing.T) {
	// Without a seed file the schema comes from -schema; two equal
	// names under the cross product must yield one match delta, and a
	// remove line must retract it.
	stdin := strings.NewReader(`
{"id":"a","alts":[{"p":1,"values":[[{"v":"Tim"}],[{"v":"pilot"}]]}]}
{"id":"b","p":0.8,"attrs":[[{"v":"Tim"}],[{"v":"pilot"}]]}
remove b
{"id":"c","attrs":[[{"v":"Tim"}],[{"v":"pilot"}]]}
`)
	var out, errOut bytes.Buffer
	code := run([]string{"-follow", "-schema", "name,job"}, stdin, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{
		"+m    (a,b)", // b arrives and matches a
		"-m    (a,b)", // remove b retracts the pair
		"+m    (a,c)", // c arrives and matches a
		"resident 2 tuples",
		"matches=1 possible=0",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output:\n%s", want, s)
		}
	}
}

func TestRunFollowManySeeds(t *testing.T) {
	// -follow accepts any number of seed files (batch mode caps at 2).
	r3, r4, r1, _ := writeFixtures(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-follow", r3, r4, r1}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "resident 8 tuples") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunFollowSeededMatchesBatch(t *testing.T) {
	// Seeding -follow from files and reading nothing from stdin must
	// report the same M/P counts as the batch run over the same files.
	r3, r4, _, _ := writeFixtures(t)
	var batchOut, out, errOut bytes.Buffer
	if code := run([]string{r3, r4}, strings.NewReader(""), &batchOut, &errOut); code != 0 {
		t.Fatalf("batch exit %d: %s", code, errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-follow", r3, r4}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("follow exit %d: %s", code, errOut.String())
	}
	summary := batchOut.String()
	summary = strings.TrimSpace(summary[strings.LastIndex(summary, "matches="):])
	if !strings.Contains(out.String(), summary) {
		t.Fatalf("follow summary diverges from batch %q:\n%s", summary, out.String())
	}
}

// TestRunFollowBatchedWorkers pushes enough pre-buffered NDJSON
// arrivals through -follow that the read-ahead loop coalesces them
// into AddBatch units, and checks the summary is identical at
// -workers 1 and 4 — batching and parallel verification must not
// change classifications or counts.
func TestRunFollowBatchedWorkers(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 600; i++ {
		// Clusters of three near-identical names so matches exist.
		fmt.Fprintf(&in, `{"id":"t%d","attrs":[[{"v":"Johnson%d"}],[{"v":"pilot"}]]}`+"\n", i, i/3)
	}
	in.WriteString("remove t0\n")
	var summaries []string
	for _, workers := range []string{"1", "4"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-follow", "-schema", "name,job", "-key", "name:6", "-reduce", "blocking-certain", "-workers", workers},
			strings.NewReader(in.String()), &out, &errOut)
		if code != 0 {
			t.Fatalf("workers=%s exit %d: %s", workers, code, errOut.String())
		}
		s := out.String()
		if !strings.Contains(s, "resident 599 tuples") {
			t.Fatalf("workers=%s summary:\n%s", workers, s[max(0, len(s)-200):])
		}
		summaries = append(summaries, s[strings.LastIndex(s, "resident"):])
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("summaries diverge:\n%s\nvs\n%s", summaries[0], summaries[1])
	}
}

// TestRunFollowBatchErrorLine checks that a failure inside a
// coalesced batch is attributed to its input line, not to the batch.
func TestRunFollowBatchErrorLine(t *testing.T) {
	in := `{"id":"a","attrs":[[{"v":"Tim"}],[{"v":"pilot"}]]}
{"id":"b","attrs":[[{"v":"Tom"}],[{"v":"baker"}]]}
{"id":"a","attrs":[[{"v":"Dup"}],[{"v":"clerk"}]]}
`
	var out, errOut bytes.Buffer
	if code := run([]string{"-follow", "-schema", "name,job"}, strings.NewReader(in), &out, &errOut); code == 0 {
		t.Fatal("want non-zero exit for a duplicate ID in the batch")
	}
	if !strings.Contains(errOut.String(), "line 3") {
		t.Fatalf("error not attributed to line 3: %s", errOut.String())
	}
}

// TestRunFollowErrorReleasesProducer is the goroutine-leak regression
// test: when the consumer exits early on an error with far more input
// pending than the read-ahead channel holds, the producer goroutine
// must be released (done channel), not left blocked on a send.
func TestRunFollowErrorReleasesProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	var in strings.Builder
	in.WriteString("{bad json\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&in, `{"id":"t%d","attrs":[[{"v":"x"}]]}`+"\n", i)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-follow", "-schema", "name"}, strings.NewReader(in.String()), &out, &errOut); code == 0 {
		t.Fatal("want non-zero exit for bad json")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed run, %d before: producer leaked", n, before)
	}
}

func TestRunFollowErrors(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{"no schema", []string{"-follow"}, ""},
		{"empty schema attr", []string{"-follow", "-schema", ","}, ""},
		{"follow and stream", []string{"-follow", "-stream", "-schema", "name"}, ""},
		{"schema without follow", []string{"-schema", "name", "/nonexistent.pdb"}, ""},
		{"schema with seed files", []string{"-follow", "-schema", "name", "/nonexistent.pdb"}, ""},
		{"bad json", []string{"-follow", "-schema", "name"}, "{not json\n"},
		{"remove unknown", []string{"-follow", "-schema", "name"}, "remove ghost\n"},
		{"k without blocking-cluster", []string{"-follow", "-schema", "name", "-key", "name:3", "-reduce", "snm-certain", "-k", "3"}, ""},
		{"seed without blocking-cluster", []string{"-follow", "-schema", "name", "-key", "name:3", "-reduce", "snm-ranked", "-seed", "7"}, ""},
		{"arity mismatch", []string{"-follow", "-schema", "name,job"}, `{"id":"a","attrs":[[{"v":"Tim"}]]}` + "\n"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := run(c.args, strings.NewReader(c.stdin), &out, &errOut); code == 0 {
			t.Errorf("%s: want non-zero exit", c.name)
		}
	}
}

// TestRunFollowIntegrateGolden pins the -follow -integrate path to an
// exact expected transcript: the Sec. VI worked pipeline arriving
// online (testdata/follow_integrate.input, with sentinel-removal
// barriers making the batching deterministic) must produce the entity
// delta stream checked into testdata/follow_integrate.golden, byte
// for byte, so the online integration surface cannot silently drift.
func TestRunFollowIntegrateGolden(t *testing.T) {
	input, err := os.ReadFile(filepath.Join("testdata", "follow_integrate.input"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "follow_integrate.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-follow", "-integrate", "-schema", "name,job",
		"-compare", "levenshtein", "-lambda", "0.35", "-mu", "0.8"},
		bytes.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.String() != string(want) {
		t.Fatalf("-follow -integrate output drifted from golden\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestRunFollowIntegrateFlagValidation rejects -integrate without
// -follow instead of silently ignoring it.
func TestRunFollowIntegrateFlagValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-integrate", "x.pdb"}, strings.NewReader(""), &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-integrate requires -follow") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	// -v configures pair-delta printing; entity deltas are always all
	// printed, so the combination is rejected instead of ignored.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-follow", "-integrate", "-v", "-schema", "name"}, strings.NewReader(""), &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-v applies to pair deltas only") {
		t.Fatalf("stderr: %s", errOut.String())
	}
}

// TestRunBatchVerboseGolden pins the batch -v -prefilter transcript —
// per-pair lines, summary, and the pre-filter effectiveness footer —
// byte for byte against testdata/batch_verbose.golden. The run is
// sequential, so the enumeration order and the filter decisions are
// deterministic. Regenerate with PDEDUP_UPDATE_GOLDEN=1.
func TestRunBatchVerboseGolden(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	var out, errOut bytes.Buffer
	code := run([]string{"-v", "-prefilter", "-compare", "levenshtein",
		"-lambda", "0.35", "-mu", "0.8", r3, r4},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	golden := filepath.Join("testdata", "batch_verbose.golden")
	if os.Getenv("PDEDUP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("batch -v -prefilter output drifted from golden\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestRunPreFilterIdenticalResults runs the same batch detection with
// and without -prefilter and demands byte-identical declared output —
// the CLI-level witness of the filter's soundness contract. Only the
// "compared N of M" header may differ (the filter's whole point is
// verifying fewer pairs); every printed M/P line and the summary must
// match exactly.
func TestRunPreFilterIdenticalResults(t *testing.T) {
	r3, r4, _, _ := writeFixtures(t)
	base := []string{"-compare", "levenshtein", "-lambda", "0.35", "-mu", "0.8"}
	var plain, filtered bytes.Buffer
	var errOut bytes.Buffer
	if code := run(append(append([]string{}, base...), r3, r4), strings.NewReader(""), &plain, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run(append(append([]string{"-prefilter"}, base...), r3, r4), strings.NewReader(""), &filtered, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	behead := func(s string) (string, string) {
		head, rest, _ := strings.Cut(s, "\n")
		return head, rest
	}
	plainHead, plainRest := behead(plain.String())
	filtHead, filtRest := behead(filtered.String())
	if plainRest != filtRest {
		t.Fatalf("-prefilter changed the declared result\n--- plain ---\n%s--- filtered ---\n%s", plain.String(), filtered.String())
	}
	var pc, pt, fc, ft int
	if _, err := fmt.Sscanf(plainHead, "compared %d of %d pairs", &pc, &pt); err != nil {
		t.Fatalf("header %q: %v", plainHead, err)
	}
	if _, err := fmt.Sscanf(filtHead, "compared %d of %d pairs", &fc, &ft); err != nil {
		t.Fatalf("header %q: %v", filtHead, err)
	}
	if fc > pc || ft != pt {
		t.Fatalf("filtered run compared %d of %d, plain %d of %d", fc, ft, pc, pt)
	}
}

// TestRunQGramRequiresPreFilter pins the flag-consistency contract.
func TestRunQGramRequiresPreFilter(t *testing.T) {
	r3, _, _, _ := writeFixtures(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-qgram", "3", r3}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("want exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-qgram applies with -prefilter only") {
		t.Fatalf("stderr: %s", errOut.String())
	}
}

// TestRunFollowStateRestartGolden pins the durable online path across
// a simulated restart: two -follow -state invocations against the same
// state directory must produce exactly the transcripts in
// testdata/follow_state.golden1 and .golden2 — the second invocation
// recovers the first one's residents and counters but re-emits none of
// its deltas. A third invocation under a different -schema must be
// refused. Regenerate the goldens with PDEDUP_UPDATE_GOLDEN=1.
func TestRunFollowStateRestartGolden(t *testing.T) {
	dir := t.TempDir()
	args := func(schema string) []string {
		return []string{"-follow", "-state", dir, "-schema", schema,
			"-compare", "levenshtein", "-lambda", "0.35", "-mu", "0.8"}
	}
	for _, part := range []string{"1", "2"} {
		input, err := os.ReadFile(filepath.Join("testdata", "follow_state.input"+part))
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		code := run(args("name,job"), bytes.NewReader(input), &out, &errOut)
		if code != 0 {
			t.Fatalf("invocation %s: exit %d: %s", part, code, errOut.String())
		}
		golden := filepath.Join("testdata", "follow_state.golden"+part)
		if os.Getenv("PDEDUP_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Fatalf("invocation %s drifted from golden\n--- got ---\n%s--- want ---\n%s", part, out.String(), want)
		}
	}

	// The state dir was built under name,job; a different schema must
	// be rejected, not silently reinterpreted.
	var out, errOut bytes.Buffer
	if code := run(args("name,job,extra"), strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("schema mismatch: exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "schema") {
		t.Fatalf("schema mismatch not reported: %s", errOut.String())
	}
}

// TestRunStateFlagValidation rejects -state without -follow.
func TestRunStateFlagValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-state", "/tmp/x", "one.pdb"}, strings.NewReader(""), &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-state requires -follow") {
		t.Fatalf("stderr: %s", errOut.String())
	}
}

// TestRunFollowVerbosePreFilter: the online path prints the filter
// effectiveness line under -v and no memo line (no CLI turns the memo
// on), and the filter actually rejects pairs on disjoint long values.
func TestRunFollowVerbosePreFilter(t *testing.T) {
	stdin := strings.NewReader(`
{"id":"a","attrs":[[{"v":"aaaaaaaaaaaaaaaaaaaa"}],[{"v":"cccccccccccccccccccc"}]]}
{"id":"b","attrs":[[{"v":"zzzzzzzzzzzzzzzzzzzz"}],[{"v":"xxxxxxxxxxxxxxxxxxxx"}]]}
{"id":"c","attrs":[[{"v":"aaaaaaaaaaaaaaaaaaax"}],[{"v":"cccccccccccccccccccc"}]]}
`)
	var out, errOut bytes.Buffer
	code := run([]string{"-follow", "-v", "-prefilter", "-compare", "levenshtein",
		"-lambda", "0.75", "-mu", "0.9", "-schema", "name,job"}, stdin, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "prefilter on: enumerated=") {
		t.Fatalf("missing prefilter summary in:\n%s", s)
	}
	if strings.Contains(s, "cache:") {
		t.Fatalf("memo line printed without a memo in:\n%s", s)
	}
	if !strings.Contains(s, "+m    (a,c)") {
		t.Fatalf("near-duplicate pair not declared in:\n%s", s)
	}
	var en, fi, ve int
	if _, err := fmt.Sscanf(s[strings.Index(s, "prefilter on:"):],
		"prefilter on: enumerated=%d filtered=%d verified=%d", &en, &fi, &ve); err != nil {
		t.Fatalf("parse summary: %v\n%s", err, s)
	}
	if en != fi+ve || fi == 0 {
		t.Fatalf("filter counters enumerated=%d filtered=%d verified=%d", en, fi, ve)
	}
}

// TestRunFollowVerboseNoFilter: without -prefilter the summary reports
// the filter off with nothing filtered, and -v prints no delta for a
// pair compared as a non-match: it is counted, not state.
func TestRunFollowVerboseNoFilter(t *testing.T) {
	stdin := strings.NewReader(`
{"id":"a","attrs":[[{"v":"Tim"}],[{"v":"pilot"}]]}
{"id":"b","attrs":[[{"v":"Zoe"}],[{"v":"baker"}]]}
`)
	var out, errOut bytes.Buffer
	code := run([]string{"-follow", "-v", "-schema", "name,job"}, stdin, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "prefilter off: enumerated=0 filtered=0") {
		t.Fatalf("missing off summary in:\n%s", s)
	}
	if !strings.Contains(s, "0 live pairs of 1 (compared 1, retracted 0)") || strings.Contains(s, "+u") {
		t.Fatalf("the non-match (a,b) must be compared and printed by no delta:\n%s", s)
	}
}
