package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/faultinject"
)

// This file is the write-ahead job journal: with --journal-dir set,
// every accepted submission is appended (and fsync'd) to journal.log
// before its 202 goes out, and every terminal transition appends a
// matching terminal record. On boot the server replays accepts that
// never reached a terminal state, re-enqueuing them in their original
// order — so a kill -9 mid-backlog costs nothing but the time to redo
// work that never finished, and (through the content-addressed caches)
// usually not even that.
//
// Format: one JSON object per line, append-only. An accept record
// carries everything needed to resubmit the job (the raw request body,
// kind, lane, tenant, and the content-address the cache tiers key on);
// a terminal record references its accept's sequence number. The file
// is compacted copy-then-swap at boot: replayed accepts are re-written
// into journal.log.new (becoming that boot's live journal), and the
// rename happens only after replay succeeds — a crash mid-replay
// leaves the previous journal intact to replay again.
//
// Torn writes are expected: a crash (or a lying disk, simulated by the
// journal.write partial-write fault) can cut a line mid-byte. Records
// are framed with a leading newline, so a torn line can never glue
// itself onto the next healthy record; replay skips any line that
// fails to parse and keeps everything that does. A tear costs exactly
// the torn record — equivalent to crashing before its append.
//
// Two deliberate asymmetries keep the durability contract honest:
// accept appends are load-bearing (an append failure — including an
// injected journal.write fault — rejects the submission, because a job
// the journal cannot hold would be silently lost by a crash), while
// terminal appends are best-effort (losing one re-runs a finished job
// on restart, and the caches make that cheap — at-least-once, never
// lost). And graceful shutdown seals the journal before sweeping
// queued/running jobs to cancelled: those cancellations are shutdown
// artifacts, not user intent, so the jobs stay pending on disk and
// resume on the next boot.

// journalFile is the live journal's name under Options.JournalDir.
const journalFile = "journal.log"

// Journal record types and the synthetic terminal state for submissions
// that were accepted into the journal but shed before enqueueing (queue
// full, tenant quota) — without it a 429'd job would resurrect at boot.
const (
	journalAccept   = "accept"
	journalTerminal = "terminal"
	stateRejected   = "rejected"
)

// journalRecord is one journal line.
type journalRecord struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	// Accept fields.
	Kind   string          `json:"kind,omitempty"`
	Name   string          `json:"name,omitempty"`
	Lane   string          `json:"lane,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Key    string          `json:"key,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
	// Terminal fields.
	Ref   int64  `json:"ref,omitempty"`
	State string `json:"state,omitempty"`
}

// journal is the append side. All methods are nil-safe: a server
// without --journal-dir carries a nil journal and every call is a
// no-op.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	seq    int64
	sealed bool
	faults *faultinject.Set
	// onAppend counts accept appends (the journal_appends metric).
	onAppend func()
}

// openJournal creates (truncating) the journal file at path.
func openJournal(path string, faults *faultinject.Set, onAppend func()) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if onAppend == nil {
		onAppend = func() {}
	}
	return &journal{f: f, faults: faults, onAppend: onAppend}, nil
}

// appendAccept journals one accepted submission and stamps the job with
// its journal sequence number. An error (including an injected
// journal.write fault) means the submission must be rejected — the
// journal could not make it durable. A sealed journal accepts nothing:
// the server is shutting down and the listener is about to stop.
func (jn *journal) appendAccept(j *job) error {
	if jn == nil {
		return nil
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.sealed {
		return nil
	}
	jn.seq++
	j.jseq = jn.seq
	rec := journalRecord{
		Seq:    jn.seq,
		Type:   journalAccept,
		Kind:   j.kind,
		Name:   j.name,
		Lane:   laneName(j.lane),
		Tenant: j.tenant,
		Key:    j.cacheKey,
		Body:   json.RawMessage(j.body),
	}
	if err := jn.appendLocked(rec); err != nil {
		j.jseq = 0
		return err
	}
	jn.onAppend()
	return nil
}

// appendTerminal journals a job's terminal transition. Best-effort: a
// lost terminal record re-runs the job at boot (at-least-once), so
// errors are swallowed rather than failing a job that already holds its
// result. Sealed journals skip the write — see the file comment.
func (jn *journal) appendTerminal(ref int64, state string) {
	if jn == nil || ref == 0 {
		return
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.sealed {
		return
	}
	jn.seq++
	jn.appendLocked(journalRecord{Seq: jn.seq, Type: journalTerminal, Ref: ref, State: state})
}

// appendLocked writes one record line and fsyncs; jn.mu held. The
// journal.write fault point models a failing journal disk; its Writer
// wrap models a torn line (which replay's tail tolerance absorbs).
func (jn *journal) appendLocked(rec journalRecord) error {
	if err := jn.faults.Fire(context.Background(), "journal.write"); err != nil {
		return fmt.Errorf("journal write: %w", err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	// The leading newline is tear isolation: if the previous append was
	// truncated mid-line, this record still starts on a line of its own
	// and replay loses only the torn one.
	line := make([]byte, 0, len(b)+2)
	line = append(append(append(line, '\n'), b...), '\n')
	if _, err := jn.faults.Writer("journal.write", jn.f).Write(line); err != nil {
		return fmt.Errorf("journal write: %w", err)
	}
	if err := jn.f.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	return nil
}

// seal stops all journaling: graceful shutdown calls it before sweeping
// jobs to cancelled, so interrupted-by-shutdown jobs keep their pending
// accept records and replay on the next boot.
func (jn *journal) seal() {
	if jn == nil {
		return
	}
	jn.mu.Lock()
	jn.sealed = true
	jn.f.Sync()
	jn.mu.Unlock()
}

// readJournal parses a journal file into its trusted records. A
// missing file is an empty journal. Malformed lines — the torn tail of
// a crash mid-append, or a mid-file tear isolated by the next record's
// leading newline — are skipped: every line that parses was fsync'd
// whole and is trusted, every line that doesn't is a record whose
// append never durably completed.
func readJournal(path string) ([]journalRecord, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []journalRecord
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// pendingRecords filters a journal to the accepts that never reached a
// terminal state, in original (sequence) order — the replay set.
func pendingRecords(recs []journalRecord) []journalRecord {
	terminal := make(map[int64]bool)
	for _, r := range recs {
		if r.Type == journalTerminal {
			terminal[r.Ref] = true
		}
	}
	var pending []journalRecord
	for _, r := range recs {
		if r.Type == journalAccept && !terminal[r.Seq] {
			pending = append(pending, r)
		}
	}
	return pending
}
