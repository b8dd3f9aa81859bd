package disk

import (
	"testing"
	"time"

	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// TestCommitDuringCheckpointWrite: a checkpoint's temp-file write does not
// hold up the WAL. With a checkpoint stopped between writing its temp file
// and fsyncing it, a group-commit Append through the store is staged,
// synced and acknowledged; the checkpoint then publishes, and a cold
// re-open finds both.
func TestCommitDuringCheckpointWrite(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := wal.NewWithOptions(wal.Options{GroupCommit: true, Device: s})
	op := func(pk int64) []wal.Op {
		return []wal.Op{{Kind: wal.OpInsert, Table: "t", PK: pk, Row: storage.Row{pk}}}
	}
	for pk := int64(1); pk <= 3; pk++ {
		if _, err := l.Append(uint64(pk), op(pk)); err != nil {
			t.Fatal(err)
		}
	}

	written, release := make(chan struct{}), make(chan struct{})
	s.ckptWritten = func() {
		close(written)
		<-release
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint(snapshotFor(t, 1, 2, 3), 3) }()
	select {
	case <-written:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint never wrote its temp file")
	}

	appended := make(chan error, 1)
	go func() {
		_, err := l.Append(4, op(4))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a WAL Append waited on a checkpoint's temp-file write")
	}
	if got := s.SyncedLSN(); got != 4 {
		t.Fatalf("SyncedLSN = %d, want 4", got)
	}
	if got := s.CheckpointLSN(); got != 0 {
		t.Fatalf("CheckpointLSN = %d before the checkpoint's fsync, want 0", got)
	}

	close(release)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if got := s.CheckpointLSN(); got != 3 {
		t.Fatalf("CheckpointLSN = %d, want 3", got)
	}
	s.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointLSN != 3 {
		t.Fatalf("recovered CheckpointLSN = %d, want 3", rec.CheckpointLSN)
	}
	wantLSNs(t, rec.Checkpoint, 1, 2, 3)
	wantLSNs(t, rec.Tail, 4)
}
