package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

func TestLRU(t *testing.T) {
	c := NewLRU[string](2)
	c.Put("a", "A")
	c.Put("b", "B")
	if _, ok := c.Get("a"); !ok { // refresh a's recency
		t.Fatal("a missing")
	}
	c.Put("c", "C") // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want retained", k)
		}
	}
	// Re-putting a key replaces its value and refreshes it: a is now the
	// most recent, so d evicts c.
	c.Put("a", "A2")
	c.Put("d", "D")
	if v, ok := c.Get("a"); !ok || v != "A2" {
		t.Fatalf("a = (%q, %v), want the replaced value", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived; re-put did not refresh a")
	}

	// A capacity below one is clamped to one: the newest entry survives.
	one := NewLRU[int](0)
	one.Put("x", 1)
	one.Put("y", 2)
	if _, ok := one.Get("x"); ok {
		t.Fatal("clamped LRU kept two entries")
	}
	if v, ok := one.Get("y"); !ok || v != 2 {
		t.Fatalf("clamped LRU lost its newest entry: (%d, %v)", v, ok)
	}
}

// testDir opens a Dir over a fresh directory, counting quarantines in
// *corrupt.
func testDir(t *testing.T, faults *faultinject.Set, corrupt *int) *Dir {
	t.Helper()
	d, err := OpenDir(t.TempDir(), faults, "t.read", "t.write", func() { *corrupt++ })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bytesFile is a File whose content is b.
func bytesFile(name string, b []byte) File {
	return File{Name: name, Write: func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}}
}

// twoFiles is the entry most tests store.
var twoFiles = []File{bytesFile("b.csv", []byte("x,y\n1,2\n")), bytesFile("a.json", []byte(`{"a":1}`))}

// readEntry reads one file of a verified entry.
func readEntry(t *testing.T, d *Dir, key, name string) []byte {
	t.Helper()
	f, err := d.Open(key, name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDirRoundTrip: stored files read back intact, names come back
// sorted, and the manifest keeps the on-disk format — one "sha256-hex
// name" line per file, two spaces apart, in write order.
func TestDirRoundTrip(t *testing.T) {
	var corrupt int
	d := testDir(t, nil, &corrupt)
	if err := d.Put("k", twoFiles); err != nil {
		t.Fatal(err)
	}
	names, ok := d.Get("k")
	if !ok || strings.Join(names, ",") != "a.json,b.csv" {
		t.Fatalf("Get = (%v, %v), want [a.json b.csv]", names, ok)
	}
	if got := readEntry(t, d, "k", "b.csv"); string(got) != "x,y\n1,2\n" {
		t.Fatalf("b.csv = %q", got)
	}
	manifest, err := os.ReadFile(filepath.Join(d.root, "k", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%x  b.csv\n%x  a.json\n", sha256.Sum256([]byte("x,y\n1,2\n")), sha256.Sum256([]byte(`{"a":1}`)))
	if string(manifest) != want {
		t.Fatalf("manifest = %q, want %q", manifest, want)
	}
	if corrupt != 0 {
		t.Fatalf("healthy entry counted %d quarantines", corrupt)
	}
	// A second Put replaces the entry, and no temp dir is left behind.
	if err := d.Put("k", twoFiles[:1]); err != nil {
		t.Fatal(err)
	}
	if names, ok := d.Get("k"); !ok || len(names) != 1 {
		t.Fatalf("replaced entry = (%v, %v), want only b.csv", names, ok)
	}
	if ls, _ := os.ReadDir(d.root); len(ls) != 1 {
		t.Fatalf("root holds %d entries, want just the committed key", len(ls))
	}
}

// TestDirCorruption damages a stored entry each way a disk or a hand
// can: every case misses, quarantines the entry once as <key>-0, calls
// the hook once, and leaves the key reusable.
func TestDirCorruption(t *testing.T) {
	cases := []struct {
		name   string
		damage func(entry string) error
	}{
		{"bit flip", func(entry string) error {
			path := filepath.Join(entry, "a.json")
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[0] ^= 1
			return os.WriteFile(path, b, 0o644)
		}},
		{"truncation", func(entry string) error {
			return os.Truncate(filepath.Join(entry, "b.csv"), 3)
		}},
		{"missing manifest", func(entry string) error {
			return os.Remove(filepath.Join(entry, manifestFile))
		}},
		{"malformed manifest line", func(entry string) error {
			f, err := os.OpenFile(filepath.Join(entry, manifestFile), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteString("deadbeef c.txt\n")
			return err
		}},
		{"unlisted file", func(entry string) error {
			return os.WriteFile(filepath.Join(entry, "c.txt"), []byte("extra"), 0o644)
		}},
		{"listed file missing", func(entry string) error {
			return os.Remove(filepath.Join(entry, "a.json"))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var corrupt int
			d := testDir(t, nil, &corrupt)
			if err := d.Put("k", twoFiles); err != nil {
				t.Fatal(err)
			}
			if err := c.damage(filepath.Join(d.root, "k")); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get("k"); ok {
				t.Fatal("damaged entry trusted")
			}
			qs, err := os.ReadDir(filepath.Join(d.root, QuarantineDir))
			if err != nil || len(qs) != 1 || qs[0].Name() != "k-0" {
				t.Fatalf("quarantine = %v (err %v), want exactly k-0", qs, err)
			}
			if _, ok := d.Get("k"); ok {
				t.Fatal("quarantined entry still readable under its key")
			}
			if corrupt != 1 {
				t.Fatalf("hook called %d times, want 1", corrupt)
			}
			if err := d.Put("k", twoFiles); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get("k"); !ok {
				t.Fatal("re-put after quarantine missed")
			}
		})
	}
}

// TestDirFaults: an injected read fault is a miss that leaves the entry
// alone, an injected write fault fails the Put and stores nothing, and a
// torn write lands but is caught at load.
func TestDirFaults(t *testing.T) {
	mustFaults := func(spec string) *faultinject.Set {
		fs, err := faultinject.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}

	var corrupt int
	r := testDir(t, mustFaults("t.read:error:times=1"), &corrupt)
	if err := r.Put("k", twoFiles); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("k"); ok {
		t.Fatal("Get under a read fault hit")
	}
	if _, ok := r.Get("k"); !ok || corrupt != 0 {
		t.Fatalf("Get after the fault = %v with %d quarantines, want a clean hit", ok, corrupt)
	}

	w := testDir(t, mustFaults("t.write:error:times=1"), &corrupt)
	if err := w.Put("k", twoFiles); err == nil {
		t.Fatal("Put under a write fault succeeded")
	}
	if ls, _ := os.ReadDir(w.root); len(ls) != 0 {
		t.Fatalf("failed Put left %d entries behind", len(ls))
	}
	if err := w.Put("k", twoFiles); err != nil {
		t.Fatalf("Put after the fault: %v", err)
	}

	torn := testDir(t, mustFaults("t.write:partial-write:bytes=2:times=1"), &corrupt)
	if err := torn.Put("k", twoFiles); err != nil {
		t.Fatalf("torn Put = %v, want success (the tear is silent)", err)
	}
	if _, ok := torn.Get("k"); ok {
		t.Fatal("torn entry trusted")
	}
	if corrupt != 1 {
		t.Fatalf("torn entry quarantined %d times, want 1", corrupt)
	}
}

// TestNilDir: no directory configured means a nil Dir that misses and
// refuses, never panics.
func TestNilDir(t *testing.T) {
	d, err := OpenDir("", nil, "t.read", "t.write", nil)
	if err != nil || d != nil {
		t.Fatalf("OpenDir(\"\") = (%v, %v), want a nil Dir", d, err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("nil Dir hit")
	}
	if err := d.Put("k", twoFiles); err == nil {
		t.Fatal("nil Dir accepted a Put")
	}
	if _, err := d.Open("k", "a.json"); err == nil {
		t.Fatal("nil Dir opened a file")
	}
}

// TestConcurrentPutsOfOneKey: racing Puts of one key each commit whole,
// one after another, and the survivor verifies.
func TestConcurrentPutsOfOneKey(t *testing.T) {
	var corrupt int
	d := testDir(t, nil, &corrupt)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Put("k", twoFiles); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, ok := d.Get("k"); !ok {
		t.Fatal("entry missing after concurrent Puts")
	}
}

// FuzzManifest stores arbitrary file bytes under an arbitrary manifest.
// Get must never panic, must trust the entry only when the manifest is
// exactly that file's line, and must quarantine it otherwise; the same
// bytes written by Put must always be trusted.
func FuzzManifest(f *testing.F) {
	data := []byte(`{"shard":{}}`)
	line := fmt.Sprintf("%x  result.json", sha256.Sum256(data))
	f.Add([]byte(line+"\n"), data)
	f.Add([]byte(line), data)
	f.Add([]byte(line+"\r\n"), data)
	f.Add([]byte(line+"\n"), []byte(`{"shard":{`))
	f.Add([]byte(line+"\n"+line+"\n"), data)
	f.Add([]byte(line+"\n\n"), data)
	f.Add([]byte(strings.ToUpper(line)+"\n"), data)
	f.Add([]byte("nonsense"), data)
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, manifest, data []byte) {
		var corrupt int
		d := testDir(t, nil, &corrupt)
		entry := filepath.Join(d.root, "k")
		if err := os.Mkdir(entry, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(entry, "result.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(entry, manifestFile), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%x  result.json", sha256.Sum256(data))
		if _, ok := d.Get("k"); ok {
			// Lines as bufio.ScanLines splits them: one final newline
			// ends the last line, and each line drops one trailing CR.
			lines := strings.Split(strings.TrimSuffix(string(manifest), "\n"), "\n")
			for _, l := range lines {
				if strings.TrimSuffix(l, "\r") != want {
					t.Fatalf("trusted manifest %q for data %q", manifest, data)
				}
			}
			if len(lines) != 1 {
				t.Fatalf("trusted a manifest of %d lines for one file", len(lines))
			}
		} else if corrupt != 1 {
			t.Fatalf("rejected entry quarantined %d times, want 1", corrupt)
		}

		if err := d.Put("good", []File{bytesFile("result.json", data)}); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get("good"); !ok {
			t.Fatalf("Put's own entry for %q not trusted", data)
		}
		if got := readEntry(t, d, "good", "result.json"); !bytes.Equal(got, data) {
			t.Fatalf("round trip = %q, want %q", got, data)
		}
	})
}
