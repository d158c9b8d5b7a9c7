package dist

import (
	"encoding/json"
	"io"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// This file is the shard checkpoint encoding: the disk tier under the
// coordinator's in-memory shard cache keeps each completed shard result
// as result.json in an internal/store Dir, which verifies it against a
// sha256 manifest before trusting it and quarantines it when corrupt —
// a corrupt checkpoint degrades to a recompute, never to wrong merged
// tables.
//
// Checkpointing is strictly best-effort on the write side (a failed
// spill — including the injected shard.checkpoint.write fault — skips
// the checkpoint and the shard result still merges) and fail-open on
// the read side (the injected shard.checkpoint.read fault is a miss).
// The store is what makes a coordinator kill -9 cheap: on restart, the
// replayed campaign answers every already-completed shard from here and
// recomputes only the ones that never finished.

// checkpointFile is the serialized campaign.ShardResult.
const checkpointFile = "result.json"

// openCheckpoints opens (creating) the checkpoint store rooted at dir;
// an empty dir disables checkpointing and returns a nil store.
func openCheckpoints(dir string, faults *faultinject.Set) (*store.Dir, error) {
	return store.OpenDir(dir, faults, "shard.checkpoint.read", "shard.checkpoint.write", nil)
}

// loadCheckpoint reads one checkpointed shard result. Every failure —
// no store, injected read fault, missing entry, torn or tampered bytes
// — degrades to a miss; corruption is also quarantined so the recompute
// does not trip over it again.
func loadCheckpoint(d *store.Dir, key string) (campaign.ShardResult, bool) {
	var r campaign.ShardResult
	if _, ok := d.Get(key); !ok {
		return r, false
	}
	f, err := d.Open(key, checkpointFile)
	if err != nil {
		return r, false
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		d.Quarantine(key)
		return r, false
	}
	return r, true
}

// saveCheckpoint spills one completed shard result. An error (no store,
// or an injected shard.checkpoint.write fault) leaves the shard
// un-checkpointed: the result still merges, it just recomputes after a
// restart.
func saveCheckpoint(d *store.Dir, key string, r *campaign.ShardResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return d.Put(key, []store.File{{Name: checkpointFile, Write: func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}}})
}
