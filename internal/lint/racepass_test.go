package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The Makefile's -race pass selects tests by name with one -run regex over
// the packages its line lists. A test that must run under the race
// detector is named …StormRace, …SelfCheck or …Model, or takes a name an
// alternation already matches. The regex cannot say when one of its
// alternations stopped matching anything — a test renamed or folded away —
// nor when a test named by the rule is not selected, so this does.

// raceRuleSuffixes are the name endings the naming rule sends to -race.
var raceRuleSuffixes = []string{"StormRace", "SelfCheck", "Model"}

// racePass finds the Makefile's `go test -race` line and returns the
// alternations of its -run regex and the package directories it lists,
// slash-separated from the module root.
func racePass(makefile string) (alts, pkgs []string, ok bool) {
	for _, line := range strings.Split(makefile, "\n") {
		if !strings.Contains(line, " test -race ") || !strings.Contains(line, "-run '") {
			continue
		}
		re := line[strings.Index(line, "-run '")+len("-run '"):]
		re = re[:strings.Index(re, "'")]
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, strings.Trim(strings.TrimPrefix(f, "./"), "/"))
			}
		}
		return strings.Split(re, "|"), pkgs, true
	}
	return nil, nil, false
}

// raceSelection reports each alternation that matches no Test or Fuzz
// function of the listed packages, and each test of those packages named
// by the rule that no alternation selects.
func raceSelection(alts, pkgs []string, files []*srcFile) (out []string) {
	listed := map[string]bool{}
	for _, p := range pkgs {
		listed[p] = true
	}
	var names []string
	for _, f := range files {
		if !f.test || !listed[filepath.ToSlash(filepath.Dir(f.rel))] {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	res := make([]*regexp.Regexp, len(alts))
	for i, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil {
			out = append(out, "alternation "+alt+": "+err.Error())
			continue
		}
		res[i] = re
	}
	selected := func(name string) bool {
		for _, re := range res {
			if re != nil && re.MatchString(name) {
				return true
			}
		}
		return false
	}
	for i, re := range res {
		if re == nil {
			continue
		}
		hit := false
		for _, name := range names {
			hit = hit || re.MatchString(name)
		}
		if !hit {
			out = append(out, "alternation "+alts[i]+" matches no test of the packages the -race line lists; drop it")
		}
	}
	for _, name := range names {
		for _, suffix := range raceRuleSuffixes {
			if strings.HasSuffix(name, suffix) && !selected(name) {
				out = append(out, name+" is named …"+suffix+" but the -race regex does not select it")
			}
		}
	}
	return out
}

func TestRacePassSelectsTests(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	alts, pkgs, ok := racePass(string(makefile))
	if !ok || len(alts) == 0 || len(pkgs) == 0 {
		t.Fatal("no `go test -race … -run '…' ./pkg/…` line in the Makefile")
	}
	for _, v := range raceSelection(alts, pkgs, loadTree(t)) {
		t.Error(v)
	}
}

func TestRacePassCheck(t *testing.T) {
	alts, pkgs, ok := racePass("x:\n\t$(GO) test -race -short -run 'Storm|Gone' -count=1 ./internal/p/ ./cmd/x/\n")
	if !ok || strings.Join(alts, ",") != "Storm,Gone" || strings.Join(pkgs, ",") != "internal/p,cmd/x" {
		t.Fatalf("racePass: %q %q %v", alts, pkgs, ok)
	}
	files := parseSnippets(t, map[string]string{
		"internal/p/p_test.go":     "package p\nfunc TestStorm(t *testing.T) {}\nfunc TestTableModel(t *testing.T) {}\nfunc (s) TestGone() {}\n",
		"internal/q/q_test.go":     "package q\nfunc TestGone(t *testing.T) {}\n",
		"cmd/x/main_test.go":       "package main\nfunc TestXRuns(t *testing.T) {}\n",
		"internal/p/p.go":          "package p\nfunc TestGoneToo() {}\n",
		"internal/p/sub/s_test.go": "package sub\nfunc TestGone(t *testing.T) {}\n",
	})
	got := strings.Join(raceSelection(alts, pkgs, files), "\n")
	want := "alternation Gone matches no test of the packages the -race line lists; drop it\n" +
		"TestTableModel is named …Model but the -race regex does not select it"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
