// Package store is the durable warm-state store behind cross-restart
// BDD reuse: a content-addressed directory of checksummed files holding
// frozen encoding bases (snapshot + semantics memo) keyed by deployment
// fingerprint and per-switch check verdicts keyed by the logical/TCAM
// rule-list fingerprints.
//
// A save is written before it returns: Save* encodes the file and
// publishes it atomically (temp file + rename), so a crashed writer
// leaves the previous complete file, never a torn one, and the caller
// gets the write's error. Two writers of one file both publish complete
// images; the later rename wins.
//
// Loads verify everything (codec.go) and are cache-semantics: a missing
// file is (nil, nil), a corrupt or mismatched file is an error the
// caller treats as a cold start. Loading touches the file's mtime, so
// the age/LRU GC keeps hot entries alive.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scout/internal/equiv"
)

// fileSuffix marks files owned by this store (GC refuses to touch
// anything else in the directory).
const fileSuffix = ".scout"

// tempMark follows a store file's name in the name of the temp file it is
// written through (writeAtomic). A writer killed before the rename leaves
// that file behind; GC takes one older than orphanTempAge for such a
// leftover — a live writer's is seconds old.
const (
	tempMark      = ".tmp"
	orphanTempAge = time.Minute
)

func baseFileName(depFP uint64) string {
	return fmt.Sprintf("base-%016x%s", depFP, fileSuffix)
}

func verdictFileName(depFP uint64, probe bool) string {
	kind := "checks"
	if probe {
		kind = "probes"
	}
	return fmt.Sprintf("%s-%016x%s", kind, depFP, fileSuffix)
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
	return writeAtomic(filepath.Join(s.dir, baseFileName(depFP)), encodeBase(depFP, b))
}

// LoadBase loads the frozen base persisted for the deployment
// fingerprint: (nil, nil) when none exists, an error when the file
// fails verification (the caller treats it as a cold start). A
// successful load touches the file for the LRU GC.
func (s *Store) LoadBase(depFP uint64) (*equiv.Base, error) {
	data, err := s.readFile(baseFileName(depFP))
	if err != nil || data == nil {
		return nil, err
	}
	b, err := decodeBase(data, depFP)
	if err != nil {
		return nil, err
	}
	s.touch(baseFileName(depFP))
	return b, nil
}

// SaveVerdicts encodes per-switch check verdicts and publishes them under
// the deployment fingerprint (probe selects the probe-mode cache's file),
// returning the write's error.
func (s *Store) SaveVerdicts(depFP uint64, probe bool, vs []Verdict) error {
	return writeAtomic(filepath.Join(s.dir, verdictFileName(depFP, probe)), encodeVerdicts(depFP, vs))
}

// LoadVerdicts loads the verdicts persisted for the deployment
// fingerprint: (nil, nil) when none exist, an error on verification
// failure. A successful load touches the file for the LRU GC.
func (s *Store) LoadVerdicts(depFP uint64, probe bool) ([]Verdict, error) {
	name := verdictFileName(depFP, probe)
	data, err := s.readFile(name)
	if err != nil || data == nil {
		return nil, err
	}
	vs, err := decodeVerdicts(data, depFP)
	if err != nil {
		return nil, err
	}
	s.touch(name)
	return vs, nil
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

// touch refreshes a file's mtime so the LRU half of GC sees recently
// loaded state as recently used. Best effort.
func (s *Store) touch(name string) {
	now := time.Now()
	_ = os.Chtimes(filepath.Join(s.dir, name), now, now)
}

// GCStats summarizes one garbage-collection pass.
type GCStats struct {
	// Kept and Removed count store files after the pass.
	Kept    int
	Removed int
}

// GC removes stale store files: everything older than maxAge (0 = no
// age bound), then — oldest first — whatever keeps the file count at or
// under maxFiles (0 = no count bound). Only files carrying the store
// suffix are considered. Both saves and loads refresh mtimes, so "oldest" is least-recently-used, not
// least-recently-written. The temp files of writers that died mid-write
// (see tempMark) go too, whatever the bounds, and count in Removed.
func (s *Store) GC(maxAge time.Duration, maxFiles int) (GCStats, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return GCStats{}, fmt.Errorf("store: gc: %w", err)
	}
	type file struct {
		name  string
		mtime time.Time
	}
	var files []file
	var st GCStats
	for _, ent := range entries {
		orphan := strings.Contains(ent.Name(), fileSuffix+tempMark)
		if ent.IsDir() || !(orphan || strings.HasSuffix(ent.Name(), fileSuffix)) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced with a concurrent remove
		}
		if orphan {
			if time.Since(info.ModTime()) > orphanTempAge && os.Remove(filepath.Join(s.dir, ent.Name())) == nil {
				st.Removed++
			}
			continue
		}
		files = append(files, file{name: ent.Name(), mtime: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })

	cutoff := time.Time{}
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge)
	}
	keep := files[:0]
	for _, f := range files {
		if !cutoff.IsZero() && f.mtime.Before(cutoff) {
			if rmErr := os.Remove(filepath.Join(s.dir, f.name)); rmErr == nil {
				st.Removed++
				continue
			}
		}
		keep = append(keep, f)
	}
	if maxFiles > 0 && len(keep) > maxFiles {
		for _, f := range keep[:len(keep)-maxFiles] {
			if rmErr := os.Remove(filepath.Join(s.dir, f.name)); rmErr == nil {
				st.Removed++
			} else {
				st.Kept++
			}
		}
		keep = keep[len(keep)-maxFiles:]
	}
	st.Kept += len(keep)
	return st, nil
}
