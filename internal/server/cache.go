package server

import (
	"io"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/results"
	"repro/internal/store"
)

// This file is the content-addressed result cache: finished jobs are
// stored under a key fingerprinting the submission (spec or sim request),
// the binary's VCS revision, and the Go toolchain, so an identical
// submission returns instantly without re-simulation. Entries live in an
// in-memory LRU holding the typed tables; when a cache directory is
// configured, every entry is also spilled to an internal/store disk tier
// as fully rendered artifacts, surviving both LRU eviction and server
// restarts. The store verifies each spilled entry against its sha256
// manifest before trusting it and quarantines one that was torn or
// tampered with, so a corrupt cache degrades to a recompute — never a
// wrong artifact or a 500. The store's manifest.sums is outside
// artifactName's namespace, so it can never be fetched as an artifact.

// cache pairs the memory tier of typed tables with the optional disk
// tier of their renderings.
type cache struct {
	mem  *store.LRU[[]results.Table]
	disk *store.Dir // nil without a cache directory
}

// newCache returns an empty cache of the given capacity spilling into
// dir (created if missing) when non-empty. faults may be nil; onCorrupt
// (the quarantine hook, shared with /v1/metrics) may be nil.
func newCache(capacity int, dir string, faults *faultinject.Set, onCorrupt func()) (*cache, error) {
	disk, err := store.OpenDir(dir, faults, "cache.disk.read", "cache.disk.write", onCorrupt)
	if err != nil {
		return nil, err
	}
	return &cache{mem: store.NewLRU[[]results.Table](capacity), disk: disk}, nil
}

// put stores tables under key in memory and, with a disk tier, spills
// every table in every format as {table}.{format}.
func (c *cache) put(key string, tables []results.Table) error {
	c.mem.Put(key, tables)
	if c.disk == nil {
		return nil
	}
	var files []store.File
	for _, t := range tables {
		base := strings.ToLower(t.TableMeta().Experiment)
		for _, format := range results.Formats() {
			files = append(files, store.File{Name: base + "." + format, Write: func(w io.Writer) error {
				return results.WriteFormat(w, t, format)
			}})
		}
	}
	return c.disk.Put(key, files)
}
