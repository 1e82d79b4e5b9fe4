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
