package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunPaper(t *testing.T) {
	code, out, errs := runCLI("-exp", "paper")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{"E01 —", "E10 —"} {
		if !strings.Contains(out, want) {
			t.Errorf("paper output lacks %q", want)
		}
	}
	if strings.Contains(out, "S01 —") {
		t.Error("-exp paper ran a synthetic experiment")
	}
}

// TestRunSynthetic runs the table entries on a tiny corpus: each name
// selects exactly its own experiment.
func TestRunSynthetic(t *testing.T) {
	for _, e := range synthetic {
		if e.name == "s04" {
			continue // fixed 100–800 entity sweep, too slow for a unit test
		}
		code, out, errs := runCLI("-exp", e.name, "-entities", "12", "-seed", "7")
		if code != 0 || errs != "" {
			t.Fatalf("%s: exit %d, stderr %q", e.name, code, errs)
		}
		if title := strings.ToUpper(e.name) + " — "; !strings.HasPrefix(out, title) || strings.Count(out, " — ") != 1 {
			t.Errorf("%s: output is not exactly that experiment's table:\n%s", e.name, out)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	code, out, errs := runCLI("-exp", "s99")
	if code != 2 || out != "" || !strings.Contains(errs, `unknown experiment "s99"`) || !strings.Contains(errs, "-entities") {
		t.Fatalf("unknown experiment: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}
