// Package store is the durable warm-state store behind cross-restart
// BDD reuse: a content-addressed directory of checksummed files holding
// frozen encoding bases (snapshot + semantics memo) keyed by deployment
// fingerprint and per-switch check verdicts keyed by the logical/TCAM
// rule-list fingerprints.
//
// Writes are write-behind: Save* enqueues an encode-and-persist job and
// returns immediately; one background goroutine drains the queue,
// encoding off the hot path and publishing each file atomically
// (temp file + rename), so a crashed writer leaves the previous
// complete file, never a torn one. The queue is keyed by filename with
// latest-wins coalescing — a watch daemon persisting every round costs
// at most one in-flight encode per file no matter how far it runs
// ahead. Flush waits for the queue to drain; Close drains and stops.
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
	"sync"
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

// Store is a content-addressed warm-state directory with a write-behind
// persistence queue. All methods are safe for concurrent use; one Store
// may serve many sessions.
type Store struct {
	dir string

	mu   sync.Mutex
	cond *sync.Cond
	// pending maps filename → encode job, latest wins. inflight names
	// the file the writer goroutine is currently persisting, so Flush
	// waits for it too.
	pending  map[string]func() []byte
	inflight string
	closed   bool
	err      error // first persistence error, surfaced by Flush/Close
	done     chan struct{}
}

// Open opens (creating if needed) a warm-state store rooted at dir and
// starts its write-behind goroutine. Call Close when done with it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		pending: make(map[string]func() []byte),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.writer()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// writer is the write-behind goroutine: it drains the pending queue one
// job at a time — encode (off every caller's hot path), then publish
// atomically — and exits once the store is closed and drained.
func (s *Store) writer() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		var name string
		var job func() []byte
		for name, job = range s.pending {
			break
		}
		delete(s.pending, name)
		s.inflight = name
		s.mu.Unlock()

		err := writeAtomic(filepath.Join(s.dir, name), job())

		s.mu.Lock()
		s.inflight = ""
		if err != nil && s.err == nil {
			s.err = err
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
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

// enqueue registers an encode-and-persist job for name, replacing any
// not-yet-started job for the same file (latest wins). Jobs after Close
// are dropped.
func (s *Store) enqueue(name string, job func() []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.pending[name] = job
	s.cond.Signal()
}

// drainLocked blocks until every pending write has been persisted (or has
// failed). The caller holds s.mu.
func (s *Store) drainLocked() {
	for len(s.pending) > 0 || s.inflight != "" {
		s.cond.Wait()
	}
}

// Flush blocks until every pending write has been persisted and returns
// the first persistence error since the previous Flush (clearing it).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	err := s.err
	s.err = nil
	return err
}

// Close drains the pending writes, stops the write-behind goroutine,
// and returns the first unreported persistence error. A closed store
// drops subsequent Save calls; Loads keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	s.err = nil
	return err
}

// SaveBase schedules write-behind persistence of a frozen base under
// its deployment fingerprint. The base is immutable, so the background
// encode needs no coordination with the caller.
func (s *Store) SaveBase(depFP uint64, b *equiv.Base) {
	s.enqueue(baseFileName(depFP), func() []byte { return encodeBase(depFP, b) })
}

// LoadBase loads the frozen base persisted for the deployment
// fingerprint: (nil, nil) when none exists, an error when the file
// fails verification (the caller treats it as a cold start). Pending
// writes are waited for first so a load observes the newest state. A
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

// SaveVerdicts schedules write-behind persistence of per-switch check
// verdicts (probe selects the probe-mode cache's file). The slice is
// retained until the background encode runs; callers pass a snapshot
// they will not mutate. Reports inside are immutable by convention.
func (s *Store) SaveVerdicts(depFP uint64, probe bool, vs []Verdict) {
	s.enqueue(verdictFileName(depFP, probe), func() []byte { return encodeVerdicts(depFP, vs) })
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

// readFile waits for pending writes and reads one store file, mapping
// absence to (nil, nil). A failed write is not the load's to report: its
// error stays for Flush or Close, whose caller is the one that can tell
// an operator the directory stopped persisting — a load's caller treats
// any error as a cold start.
func (s *Store) readFile(name string) ([]byte, error) {
	s.mu.Lock()
	s.drainLocked()
	s.mu.Unlock()
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
// suffix are considered; the write queue is flushed first so a file
// about to be rewritten is not judged by its old mtime. Both saves and
// loads refresh mtimes, so "oldest" is least-recently-used, not
// least-recently-written. The temp files of writers that died mid-write
// (see tempMark) go too, whatever the bounds, and count in Removed.
func (s *Store) GC(maxAge time.Duration, maxFiles int) (GCStats, error) {
	if err := s.Flush(); err != nil {
		return GCStats{}, err
	}
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
