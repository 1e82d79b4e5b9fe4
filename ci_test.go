package scout_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	raceCall = regexp.MustCompile(`^\s*race\s+("[^"]*"|\S+)\s+(Test.*)$`)
)

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

// ciLines returns the lines of the CI workflow.
func ciLines(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}
