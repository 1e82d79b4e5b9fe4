package scout

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutants holds the tests to the mutants they are known to kill. Each
// testdata/mutants/<name>.patch is a deliberate bug whose first line is
// the test command that must fail on it (`go test ...`, run from the
// module root). The test copies the module into a temporary directory for
// each patch, applies the patch there with `git apply`, and runs the
// command: a patch that no longer applies fails the test (re-make it
// against the new code), and so does a command that passes or that fails
// without a failed test (a build error kills nothing). The patches run as
// parallel subtests, each on its own copy; -short skips them all, since
// every mutant builds and tests its own copy.
func TestMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: every mutant builds and tests a copy of the module")
	}
	patches, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.patch"))
	if err != nil || len(patches) == 0 {
		t.Fatalf("testdata/mutants holds no patches (%v)", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, patch := range patches {
		t.Run(strings.TrimSuffix(filepath.Base(patch), ".patch"), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(patch)
			if err != nil {
				t.Fatal(err)
			}
			line, _, _ := strings.Cut(string(data), "\n")
			args := strings.Fields(line)
			if len(args) < 2 || args[0] != "go" || args[1] != "test" {
				t.Fatalf("first line %q names no `go test` command", line)
			}
			dir := copyModule(t, root)
			apply := exec.Command("git", "apply", filepath.Join(root, patch))
			apply.Dir = dir
			if out, err := apply.CombinedOutput(); err != nil {
				t.Fatalf("the patch no longer applies (%v); re-make it against the code it mutates:\n%s", err, out)
			}
			cmd := exec.Command(args[0], args[1:]...)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Errorf("the mutant survives: `%s` passes on it:\n%s", line, out)
			case !strings.Contains(string(out), "--- FAIL: "):
				t.Errorf("`%s` fails on the mutant with no failed test (%v):\n%s", line, err, out)
			}
		})
	}
}

// copyModule copies the module at root, its .git directory aside, into a
// fresh temporary directory and returns that directory.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
