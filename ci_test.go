package scout_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	fuzzLeg    = regexp.MustCompile(`go test .*-fuzz=(\w+) .*\s(\.\S*)\s*$`)
	testFunc   = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	raceCall   = regexp.MustCompile(`^\s*race\s+("[^"]*"|\S+)\s+(Test.*)$`)
)

// TestFuzzLegs holds the CI workflow's fuzz legs to the tree's fuzz
// targets one to one, package included: a new Fuzz* gets a leg, and a leg
// names a target that exists where it says.
func TestFuzzLegs(t *testing.T) {
	targets := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = "./" + dir
		}
		for _, m := range fuzzTarget.FindAllStringSubmatch(string(src), -1) {
			targets[pkg+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	legs := make(map[string]int)
	for _, line := range ciLines(t) {
		if m := fuzzLeg.FindStringSubmatch(line); m != nil {
			legs[strings.TrimSuffix(m[2], "/")+" "+m[1]]++
		}
	}
	if len(targets) == 0 {
		t.Fatal("no Fuzz* target found")
	}
	for target := range targets {
		if legs[target] != 1 {
			t.Errorf("fuzz target %s has %d CI legs, want 1", target, legs[target])
		}
	}
	for leg := range legs {
		if !targets[leg] {
			t.Errorf("CI fuzzes %s, which is no Fuzz* target of that package", leg)
		}
	}
}

// TestRaceStepNames holds every test the CI race step names to a
// func Test… in the packages its call runs. The step fails on a named test
// that does not run; this fails the same rename here, under go test ./...
func TestRaceStepNames(t *testing.T) {
	calls, joined := 0, ""
	for _, line := range ciLines(t) {
		if cont, ok := strings.CutSuffix(strings.TrimSpace(line), "\\"); ok {
			joined += cont + " "
			continue
		}
		if m := raceCall.FindStringSubmatch(joined + line); m != nil {
			calls++
			tests := make(map[string]bool)
			for _, pkg := range strings.Fields(strings.Trim(m[1], `"`)) {
				files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
				if err != nil || len(files) == 0 {
					t.Fatalf("race step package %s: no test files (%v)", pkg, err)
				}
				for _, path := range files {
					src, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range testFunc.FindAllStringSubmatch(string(src), -1) {
						tests[f[1]] = true
					}
				}
			}
			for _, name := range strings.Fields(m[2]) {
				if !tests[name] {
					t.Errorf("the race step names %s, which no test file of %s declares", name, m[1])
				}
			}
		}
		joined = ""
	}
	if calls == 0 {
		t.Fatal("no race step call found in the CI workflow")
	}
}
