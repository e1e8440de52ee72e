package probdedup_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsGatePackageComments is the documentation gate: every
// non-test package under internal/ and the root package must carry a
// package comment (the ARCHITECTURE.md contract — each package states
// which paper section it implements). The check parses the source
// directly, so it runs in plain `go test` and in CI without extra
// tooling.
func TestDocsGatePackageComments(t *testing.T) {
	var dirs []string
	if err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, ".")

	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		hasGo := false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			hasGo = true
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", filepath.Join(dir, name), err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
			}
		}
		if hasGo && !documented {
			t.Errorf("package %s has no package comment — add a doc.go citing the paper section it implements", dir)
		}
	}
}

// mdMention matches a Markdown file name, with its directory when one
// is written.
var mdMention = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestDocsGateNoDanglingMarkdown fails on any *.md file that a Go
// comment or one of the repository's own documents names but the tree
// does not hold — the way seven files cited an EXPERIMENTS.md that was
// never committed. A name resolves against the repository root or the
// directory of the file that mentions it. The planning files written
// from outside the tree (ISSUE.md, PAPERS.md, SNIPPETS.md) and the
// history (CHANGES.md, which names what was deleted) are not held to it,
// neither as the file that mentions nor as the name mentioned: a tree
// may lack the planning files.
func TestDocsGateNoDanglingMarkdown(t *testing.T) {
	unchecked := map[string]bool{"ISSUE.md": true, "PAPERS.md": true, "SNIPPETS.md": true, "CHANGES.md": true}
	check := func(path, text string) {
		for _, name := range mdMention.FindAllString(text, -1) {
			if unchecked[name] {
				continue
			}
			_, errRoot := os.Stat(name)
			_, errDir := os.Stat(filepath.Join(filepath.Dir(path), name))
			if errRoot != nil && errDir != nil {
				t.Errorf("%s names %s, which is not in the tree", path, name)
			}
		}
	}
	fset := token.NewFileSet()
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && (path == ".git" || path == ".bench_build"):
			return filepath.SkipDir
		case d.IsDir() || unchecked[path]:
		case strings.HasSuffix(path, ".md"):
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			check(path, string(text))
		case strings.HasSuffix(path, ".go") && !strings.Contains(path, "testdata"):
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, c := range f.Comments {
				check(path, c.Text())
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
