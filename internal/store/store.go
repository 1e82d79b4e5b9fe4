// Package store is the durable warm-state store behind cross-restart
// verdict replay: a content-addressed directory of checksummed files
// holding frozen encoding bases (node table + one root per logical list)
// keyed by deployment fingerprint and per-switch check verdicts keyed by
// the logical/TCAM rule-list fingerprints.
//
// A save is written before it returns: Save* encodes the file and
// publishes it atomically (temp file + rename), so a crashed writer
// leaves the previous complete file, never a torn one, and the caller
// gets the write's error. Two writers of one file both publish complete
// images; the later rename wins.
//
// Loads verify everything (codec.go) and are cache-semantics: a missing
// file is (nil, nil), a corrupt or mismatched file is an error the
// caller treats as a cold start.
//
// The store holds one deployment: a save of a deployment's file removes
// every other deployment's files (evict). A load writes nothing.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"scout/internal/equiv"
)

// fileSuffix ends the name of every file the store writes.
const fileSuffix = ".scout"

// tempMark follows a store file's name in the name of the temp file it is
// written through (writeAtomic). A writer killed before the rename leaves
// that file behind; eviction takes one older than orphanTempAge for such a
// leftover — a live writer's is seconds old.
const (
	tempMark      = ".tmp"
	orphanTempAge = time.Minute
)

func baseFileName(depFP uint64) string {
	return fmt.Sprintf("base-%016x%s", depFP, fileSuffix)
}

func verdictFileName(depFP uint64) string {
	return fmt.Sprintf("checks-%016x%s", depFP, fileSuffix)
}

// Store is a content-addressed warm-state directory. It holds nothing
// but the directory's path, so it is safe for concurrent use: one Store
// may serve many sessions, each publishing its own files.
type Store struct {
	dir string
}

// Open opens (creating if needed) a warm-state store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// writeAtomic publishes data at path via a same-directory temp file and
// rename, so readers only ever observe complete files.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempMark+"*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", path, werr)
	}
	return nil
}

// Deprecated: Flush returns nil — every save is written before it
// returns. It stays until bench/ stops calling it (ROADMAP item 1, shims).
func (s *Store) Flush() error { return nil }

// Deprecated: Close returns nil — a store holds nothing to release. It
// stays until bench/ stops calling it (ROADMAP item 1, shims).
func (s *Store) Close() error { return nil }

// SaveBase encodes a frozen base and publishes it under its deployment
// fingerprint, returning the write's error.
func (s *Store) SaveBase(depFP uint64, b *equiv.Base) error {
	return s.save(depFP, baseFileName(depFP), encodeBase(depFP, b))
}

// save publishes one of depFP's files, then evicts every other
// deployment's. Only the write's error is returned: eviction is best
// effort.
func (s *Store) save(depFP uint64, name string, data []byte) error {
	if err := writeAtomic(filepath.Join(s.dir, name), data); err != nil {
		return err
	}
	s.evict(depFP)
	return nil
}

// LoadBase loads the frozen base persisted for the deployment
// fingerprint: (nil, nil) when none exists, an error when the file
// fails verification (the caller treats it as a cold start).
func (s *Store) LoadBase(depFP uint64) (*equiv.Base, error) {
	data, err := s.readFile(baseFileName(depFP))
	if err != nil || data == nil {
		return nil, err
	}
	return decodeBase(data, depFP)
}

// SaveVerdicts encodes per-switch check verdicts and publishes them under
// the deployment fingerprint, returning the write's error. The probe
// argument is deprecated and ignored: there is one kind of verdict. It
// stays until bench/ stops passing it (ROADMAP item 1, shims).
func (s *Store) SaveVerdicts(depFP uint64, probe bool, vs []Verdict) error {
	return s.save(depFP, verdictFileName(depFP), encodeVerdicts(depFP, vs))
}

// LoadVerdicts loads the verdicts persisted for the deployment
// fingerprint: (nil, nil) when none exist, an error on verification
// failure. The probe argument is deprecated and ignored, as SaveVerdicts' is.
func (s *Store) LoadVerdicts(depFP uint64, probe bool) ([]Verdict, error) {
	data, err := s.readFile(verdictFileName(depFP))
	if err != nil || data == nil {
		return nil, err
	}
	return decodeVerdicts(data, depFP)
}

// readFile reads one store file, mapping absence to (nil, nil).
func (s *Store) readFile(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", name, err)
	}
	return data, nil
}

// deploymentOf returns the deployment fingerprint in a name that
// baseFileName or verdictFileName writes: base- or checks-, then sixteen
// lowercase hex digits, then fileSuffix.
func deploymentOf(name string) (uint64, bool) {
	kind, key, _ := strings.Cut(name, "-")
	hex, ok := strings.CutSuffix(key, fileSuffix)
	if !ok || len(hex) != 16 || strings.Trim(hex, "0123456789abcdef") != "" || kind != "base" && kind != "checks" {
		return 0, false
	}
	fp, _ := strconv.ParseUint(hex, 16, 64)
	return fp, true
}

// evict removes, after a save of depFP's deployment, every file of
// another deployment and every temp file older than orphanTempAge. A
// directory, a young temp file, or a file whose name the store did not
// write, stays. Best effort: a file that will not go is tried again at
// the next save.
func (s *Store) evict(depFP uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		fp, ours := deploymentOf(ent.Name())
		orphan := !ours && strings.Contains(ent.Name(), fileSuffix+tempMark)
		if !ent.Type().IsRegular() || !(orphan || ours && fp != depFP) {
			continue
		}
		if orphan {
			info, err := ent.Info()
			if err != nil || time.Since(info.ModTime()) <= orphanTempAge {
				continue // a live writer's, or raced with a concurrent remove
			}
		}
		os.Remove(filepath.Join(s.dir, ent.Name()))
	}
}
