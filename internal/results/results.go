// Package results defines the typed result tables every experiment of the
// evaluation produces — infection curves (Fig 3/4), attack-effect and
// per-application series (Fig 5/6), the Section V-C placement study, the
// variant/defense comparison tables, and the Table I / Section III-D
// accounting tables — together with the emitters that serialize any table
// to JSON, CSV, and aligned human text from one code path. Every
// serialized artifact embeds run metadata (experiment ID, campaign seed,
// declared worker count, a hash of the resolved parameters, and the VCS
// revision), so result files are self-describing and diffable.
//
// The package is a leaf: internal/core builds these tables from its
// drivers, internal/campaign writes them to disk, and the cmd tools print
// them. Serialized bytes depend only on the table contents and the
// declared metadata — never on scheduling — so artifacts are byte-identical
// for any -parallel value (regression-gated in internal/campaign).
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
)

// Meta is the provenance block embedded in every serialized table.
type Meta struct {
	// Experiment is the DESIGN.md §2 identifier (E1–E10, X1–X2, or "run"
	// for a one-off htsim campaign report).
	Experiment string `json:"experiment"`
	// Title is the human description of the artifact.
	Title string `json:"title"`
	// Seed is the campaign seed the table was generated from.
	Seed int64 `json:"seed"`
	// Workers is the worker count declared by the campaign spec (0 means
	// one per CPU). It records the declarative setting, never the
	// execution-time -parallel override: results are bit-identical for any
	// worker count, and embedding the override would break that identity
	// at the byte level.
	Workers int `json:"workers"`
	// ConfigHash fingerprints the resolved experiment parameters, so two
	// artifacts are comparable exactly when their hashes match.
	ConfigHash string `json:"config_hash"`
	// Revision is the VCS revision of the generating binary, "unknown"
	// when the build carries no VCS stamp (e.g. test binaries).
	Revision string `json:"revision"`
	// GoVersion is the toolchain that built the generating binary
	// (runtime.Version()), so an artifact's numeric drift can be traced to
	// a toolchain change as well as a code change.
	GoVersion string `json:"go_version"`
}

// NewMeta assembles the provenance block for one experiment artifact,
// fingerprinting the resolved parameter struct (see HashConfig).
func NewMeta(experiment, title string, seed int64, workers int, params any) Meta {
	return Meta{
		Experiment: experiment,
		Title:      title,
		Seed:       seed,
		Workers:    workers,
		ConfigHash: HashConfig(params),
		Revision:   Revision(),
		GoVersion:  runtime.Version(),
	}
}

// HashConfig fingerprints a resolved parameter struct: the first 12 hex
// digits of the SHA-256 of its canonical JSON encoding. Struct fields
// marshal in declaration order, so the hash is stable across runs.
func HashConfig(params any) string {
	b, err := json.Marshal(params)
	if err != nil {
		// Parameter structs are plain data; a marshal failure is a
		// programming error surfaced in the artifact rather than hidden.
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// Revision reports the VCS revision baked into the running binary by the
// Go toolchain, or "unknown" for unstamped builds (tests, go run outside a
// checkout).
func Revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Build fingerprints the binary that computed a result: its VCS revision,
// Go toolchain and GOARCH. The compiler fuses multiply-adds into FMA
// instructions on some architectures and not on others, so the same source
// can round differently per GOARCH; every cache key and every shard
// dispatch carries the whole fingerprint.
type Build struct {
	Revision string `json:"revision"`
	Go       string `json:"go"`
	Arch     string `json:"arch"`
}

// ThisBuild returns the running binary's fingerprint.
var ThisBuild = sync.OnceValue(func() Build { return Build{Revision(), runtime.Version(), runtime.GOARCH} })

// Table is the interface every typed result table implements; the JSON,
// CSV, and text emitters are all driven through it.
type Table interface {
	// TableMeta exposes the embedded provenance block.
	TableMeta() *Meta
	// ColumnNames is the CSV header (and text column row).
	ColumnNames() []string
	// RowValues returns the table body; cells may be string, int, uint64,
	// float64, or fmt.Stringer values and are formatted by the emitters.
	RowValues() [][]any
}

// formatCell renders one cell machine-faithfully: floats keep full
// precision so CSV round-trips losslessly.
func formatCell(v any) string {
	switch c := v.(type) {
	case string:
		return c
	case float64:
		return strconv.FormatFloat(c, 'g', -1, 64)
	case int:
		return strconv.Itoa(c)
	case uint64:
		return strconv.FormatUint(c, 10)
	case fmt.Stringer:
		return c.String()
	default:
		return fmt.Sprint(v)
	}
}

// formatCellHuman renders one cell for aligned terminal output: floats are
// shortened to four significant digits.
func formatCellHuman(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', 4, 64)
	}
	return formatCell(v)
}
