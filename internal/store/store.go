// Package store is the content-addressed storage behind the service's
// result cache and the coordinator's shard cache and shard checkpoints:
// LRU, an in-memory tier, and Dir, a disk tier that trusts nothing it
// reads back.
//
// A Dir keeps one subdirectory per key (keys are hex fingerprints, safe
// as path elements) holding the entry's files plus manifest.sums, a
// sha256 manifest of "hex  name" lines. Put writes both into a temporary
// directory and renames it into place, so a partial entry is never
// visible under its key. Get verifies every file against the manifest
// before trusting the entry: a missing or malformed manifest, an
// unlisted or missing file, or a digest mismatch moves the entry to
// quarantine/<key>-<n> (kept for post-mortem, never deleted in place)
// and reports a miss, so the caller recomputes instead of serving torn
// or tampered bytes. A corrupt store costs a slower answer, never a
// wrong one.
//
// Each Dir fires two internal/faultinject points its caller names: the
// read point before every Get and Open (an injected error is a miss),
// and the write point before every Put and around each file it writes (a
// partial-write rule tears the file while the manifest still describes
// every byte, which the next Get must catch).
package store

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faultinject"
)

const (
	// manifestFile is each entry's checksum manifest.
	manifestFile = "manifest.sums"
	// QuarantineDir is the subdirectory corrupt entries move into.
	QuarantineDir = "quarantine"
	// tempPrefix begins the name of every in-flight Put's directory, so
	// anything listing committed entries can skip it.
	tempPrefix = "spill-"
)

// errNoDir is what Put and Open report on a nil Dir.
var errNoDir = errors.New("store: no directory configured")

// Dir is a disk tier of content-addressed entries. Get, Open and Put are
// nil-safe: a nil Dir (no directory configured) misses every Get and
// fails every Open and Put.
type Dir struct {
	root                  string
	faults                *faultinject.Set
	readPoint, writePoint string
	onCorrupt             func()
	// mu serialises the renames that replace or quarantine an entry;
	// files are written outside it, into each Put's own temp dir.
	mu sync.Mutex
}

// OpenDir returns a Dir rooted at root, creating the directory; an empty
// root returns a nil Dir. readPoint and writePoint name the fault points
// fired on faults (which may be nil). onCorrupt, when non-nil, is called
// once per quarantined entry.
func OpenDir(root string, faults *faultinject.Set, readPoint, writePoint string, onCorrupt func()) (*Dir, error) {
	if root == "" {
		return nil, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	if onCorrupt == nil {
		onCorrupt = func() {}
	}
	return &Dir{root: root, faults: faults, readPoint: readPoint, writePoint: writePoint, onCorrupt: onCorrupt}, nil
}

// File is one file of an entry: its name and the function that writes
// its bytes.
type File struct {
	Name  string
	Write func(io.Writer) error
}

// Put stores files under key, replacing any previous entry. On error
// (including an injected write fault) nothing is stored.
func (d *Dir) Put(key string, files []File) error {
	if d == nil {
		return errNoDir
	}
	if err := d.faults.Fire(context.Background(), d.writePoint); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(d.root, tempPrefix+"*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var sums strings.Builder
	for _, f := range files {
		sum, err := d.writeFile(filepath.Join(tmp, f.Name), f.Write)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sums, "%x  %s\n", sum, f.Name)
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestFile), []byte(sums.String()), 0o644); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	os.RemoveAll(d.path(key))
	return os.Rename(tmp, d.path(key))
}

// writeFile creates path, fills it through write and returns the sha256
// of every byte write produced. The hash sees all of them; the file sees
// what the write point's (possibly tearing) writer lets through. Any
// divergence is exactly what Get's verification must catch.
func (d *Dir) writeFile(path string, write func(io.Writer) error) ([]byte, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	err = write(io.MultiWriter(h, d.faults.Writer(d.writePoint, f)))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return h.Sum(nil), err
}

// Get reports whether key holds a trusted entry and returns its file
// names, sorted. A missing entry or an injected read fault is a miss; an
// entry that fails verification is quarantined, then missed.
func (d *Dir) Get(key string) ([]string, bool) {
	if d == nil {
		return nil, false
	}
	if err := d.faults.Fire(context.Background(), d.readPoint); err != nil {
		// An injected read failure is indistinguishable from a dying
		// disk: degrade to a miss, never to an error.
		return nil, false
	}
	entries, err := os.ReadDir(d.path(key))
	if err != nil || len(entries) == 0 {
		return nil, false
	}
	names, err := verify(d.path(key), entries)
	if err != nil {
		d.Quarantine(key)
		return nil, false
	}
	return names, true
}

// Open opens one file of key's entry for reading, after firing the read
// point. Call it for entries Get has verified.
func (d *Dir) Open(key, name string) (*os.File, error) {
	if d == nil {
		return nil, errNoDir
	}
	if err := d.faults.Fire(context.Background(), d.readPoint); err != nil {
		return nil, err
	}
	return os.Open(filepath.Join(d.path(key), name))
}

// verify checks every file of the entry in dir (whose listing, sorted by
// name, is entries) against its manifest and returns the file names in
// order. The error describes the first inconsistency found.
func verify(dir string, entries []os.DirEntry) ([]string, error) {
	sums, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("checksum manifest: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || e.Name() == manifestFile {
			continue
		}
		want, ok := sums[e.Name()]
		if !ok {
			return nil, fmt.Errorf("%s not in checksum manifest", e.Name())
		}
		if got, err := fileSum(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		} else if got != want {
			return nil, fmt.Errorf("%s checksum mismatch (have %.12s, manifest %.12s)", e.Name(), got, want)
		}
		delete(sums, e.Name())
		names = append(names, e.Name())
	}
	for name := range sums {
		return nil, fmt.Errorf("%s listed in manifest but missing", name)
	}
	if len(names) == 0 {
		return nil, errors.New("entry holds no files")
	}
	return names, nil
}

// readManifest parses a manifest of "hex  name" lines into name → hex.
func readManifest(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sums := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(digest) != sha256.Size*2 || name == "" {
			return nil, fmt.Errorf("malformed line %q", sc.Text())
		}
		if _, dup := sums[name]; dup {
			return nil, fmt.Errorf("%s listed twice", name)
		}
		sums[name] = digest
	}
	return sums, sc.Err()
}

// fileSum computes one file's sha256 hex digest.
func fileSum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// Quarantine moves key's entry to quarantine/<key>-<n>, n the first free
// slot (deleting the entry if even the move fails), and calls the
// corruption hook. The evidence survives for post-mortem and the key is
// free for the next Put.
func (d *Dir) Quarantine(key string) {
	d.onCorrupt()
	d.mu.Lock()
	defer d.mu.Unlock()
	qdir := filepath.Join(d.root, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		for n := 0; n < 100; n++ {
			dst := filepath.Join(qdir, fmt.Sprintf("%s-%d", key, n))
			if _, err := os.Stat(dst); err == nil {
				continue
			}
			if os.Rename(d.path(key), dst) == nil {
				return
			}
			break
		}
	}
	os.RemoveAll(d.path(key))
}

// path is key's entry directory.
func (d *Dir) path(key string) string { return filepath.Join(d.root, key) }
