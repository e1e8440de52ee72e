package probdedup_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestGoldenIntegrateExample pins examples/integrate — the paper's
// Sec. VI worked integration pipeline — to its exact expected output
// (testdata/integrate.golden): detection counts, resolved entities,
// uncertain duplicates, and every lineage-annotated result tuple with
// its confidence. Any drift in detection, fusion order, calibration
// or lineage derivation fails this test with a byte diff instead of
// slipping through a substring check.
func TestGoldenIntegrateExample(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	want, err := os.ReadFile("testdata/integrate.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "run", "./examples/integrate").Output()
	if err != nil {
		t.Fatalf("examples/integrate failed: %v", err)
	}
	if string(out) != string(want) {
		t.Fatalf("examples/integrate output drifted from golden\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// experimentsFence opens the recorded block of EXPERIMENTS.md.
const experimentsFence = "```text\n"

// maskS04Elapsed blanks the one column of the record that is not
// seed-determined: the wall-clock "elapsed" column of the S04 table,
// whose width moves with its contents. Every table line of that section
// is cut where the column starts.
func maskS04Elapsed(out string) string {
	lines := strings.Split(out, "\n")
	col := -1
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "S04 "):
			col = strings.Index(lines[i+1], "elapsed")
		case line == "":
			col = -1
		case col >= 0:
			lines[i] = line[:col] + "(masked)"
		}
	}
	return strings.Join(lines, "\n")
}

// TestGoldenExperiments regenerates the paper's own record: the block
// of EXPERIMENTS.md is the output of `pdbench -exp all -entities 150
// -seed 42` — every worked example and figure of the paper (E01–E10)
// and the synthetic evaluation (S01–S05, A01–A02) — byte for byte, S04's
// stopwatch column masked. PDEDUP_UPDATE_GOLDEN=1 rewrites the block.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out, err := exec.Command("go", "run", "./cmd/pdbench", "-exp", "all", "-entities", "150", "-seed", "42").Output()
	if err != nil {
		t.Fatalf("pdbench failed: %v", err)
	}
	got := maskS04Elapsed(string(out))
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(doc), experimentsFence)
	want, tail, closed := strings.Cut(rest, "```\n")
	if !ok || !closed {
		t.Fatal("EXPERIMENTS.md has no ```text block to hold the record")
	}
	if got == want {
		return
	}
	if os.Getenv("PDEDUP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(head+experimentsFence+got+"```\n"+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("pdbench output drifted from the record in EXPERIMENTS.md\n--- got ---\n%s--- want ---\n%s", got, want)
}
