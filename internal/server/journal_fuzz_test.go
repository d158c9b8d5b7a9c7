package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadJournal tears a journal written by appendAccept and
// appendTerminal the two ways a crash or a failing disk can: it cuts the
// file at an offset, and it flips one byte. Replay must never panic. A cut
// keeps exactly the records whose line ends before it. A flipped byte may
// lose, or alter, only the record whose line it lands in; a flipped
// newline may lose the records on both sides of it, which the framing's
// doubled newlines keep to one.
func FuzzReadJournal(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, journalFile)
	jn, err := openJournal(path, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		j := &job{kind: "campaign", name: fmt.Sprintf("c%d", i), lane: i % 3, tenant: "team",
			cacheKey: fmt.Sprintf("key%d", i), body: []byte(fmt.Sprintf(`{"name":"c%d","experiments":[{"id":"E1"}]}`, i))}
		if err := jn.appendAccept(j); err != nil {
			f.Fatal(err)
		}
		if i%2 == 0 {
			jn.appendTerminal(j.jseq, "done")
		}
	}
	jn.f.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	want, err := readJournal(path)
	if err != nil || len(want) != 6 {
		f.Fatalf("journal holds %d records (%v), want 6", len(want), err)
	}
	// spans[k] is record k's line, [start, end) of its JSON in full.
	var spans [][2]int
	for start := 0; start < len(full); {
		end := start + bytes.IndexByte(full[start:], '\n')
		if end > start {
			spans = append(spans, [2]int{start, end})
		}
		start = end + 1
	}
	if len(spans) != len(want) {
		f.Fatalf("found %d record lines, want %d", len(spans), len(want))
	}
	read := func(t *testing.T, b []byte) []journalRecord {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	f.Add(uint16(len(full)), uint16(0), byte(0))
	f.Add(uint16(spans[2][1]-3), uint16(spans[1][0]+5), byte('"'^'x'))
	f.Add(uint16(spans[3][1]), uint16(spans[3][1]), byte('\n'^' '))
	f.Fuzz(func(t *testing.T, cut, at uint16, flip byte) {
		c := int(cut) % (len(full) + 1)
		var kept []journalRecord
		for k, sp := range spans {
			if sp[1] <= c {
				kept = append(kept, want[k])
			}
		}
		if got := read(t, full[:c]); !reflect.DeepEqual(got, kept) {
			t.Fatalf("cut at %d: replay kept %+v, want %+v", c, got, kept)
		}

		if flip == 0 {
			return
		}
		p := int(at) % len(full)
		torn := bytes.Clone(full)
		torn[p] ^= flip
		exempt := map[int]bool{}
		for k, sp := range spans {
			if p >= sp[0] && p < sp[1] || full[p] == '\n' && (sp[1] == p || sp[0] == p+1) {
				exempt[k] = true
			}
		}
		got := read(t, torn)
		i := 0
		for k, w := range want {
			switch {
			case i < len(got) && reflect.DeepEqual(got[i], w):
				i++
			case !exempt[k]:
				t.Fatalf("flip at %d lost record %d (%+v); replay kept %+v", p, k, w, got)
			case i < len(got) && (k+1 == len(want) || !reflect.DeepEqual(got[i], want[k+1])):
				i++ // record k survived, altered by the flip
			}
		}
		if i != len(got) {
			t.Fatalf("flip at %d: replay kept %d extra records: %+v", p, len(got)-i, got[i:])
		}
	})
}
