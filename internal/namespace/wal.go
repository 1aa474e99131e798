package namespace

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wire"
)

// Op is one durable namespace mutation appended to the write-ahead log.
// The paper stores the directory tree in Berkeley DB with write-ahead
// logging and checkpointing; this package reproduces that recovery story
// with its own log.
type Op struct {
	Kind   OpKind
	Path   string
	Entry  wire.FileEntry // Create
	NewVer uint64         // Commit
	Size   int64          // Commit
}

// OpKind discriminates log records.
type OpKind uint8

// Log record kinds.
const (
	OpMkdir OpKind = iota
	OpRmdir
	OpCreate
	OpRemove
	OpCommit
)

// WAL persists namespace mutations and periodic checkpoints.
type WAL interface {
	// Append durably logs one op.
	Append(op Op) error
	// Checkpoint replaces the log with a full-state snapshot.
	Checkpoint(snapshot []byte) error
	// Recover returns the latest snapshot (nil if none) and the ops logged
	// after it.
	Recover() (snapshot []byte, ops []Op, err error)
}

// MemWAL is an in-memory WAL for tests and simulations.
type MemWAL struct {
	mu       sync.Mutex
	snapshot []byte
	ops      []Op
}

// Append implements WAL.
func (w *MemWAL) Append(op Op) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ops = append(w.ops, op)
	return nil
}

// Checkpoint implements WAL.
func (w *MemWAL) Checkpoint(snapshot []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.snapshot = append([]byte(nil), snapshot...)
	w.ops = nil
	return nil
}

// Recover implements WAL.
func (w *MemWAL) Recover() ([]byte, []Op, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.snapshot...), append([]Op(nil), w.ops...), nil
}

// OpCount reports the number of unflushed ops (diagnostics/tests).
func (w *MemWAL) OpCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.ops)
}

// FileWAL is a file-backed WAL: a gob stream of ops in <dir>/wal.log and a
// snapshot in <dir>/checkpoint. Used by the cmd/namespaced daemon.
type FileWAL struct {
	mu  sync.Mutex
	dir string
	f   *os.File
	enc *gob.Encoder
}

// NewFileWAL opens (creating if needed) a WAL in dir.
func NewFileWAL(dir string) (*FileWAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("namespace: wal dir: %w", err)
	}
	w := &FileWAL{dir: dir}
	if err := w.openLog(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *FileWAL) logPath() string  { return filepath.Join(w.dir, "wal.log") }
func (w *FileWAL) ckptPath() string { return filepath.Join(w.dir, "checkpoint") }

func (w *FileWAL) openLog() error {
	f, err := os.OpenFile(w.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("namespace: open wal: %w", err)
	}
	w.f = f
	w.enc = gob.NewEncoder(f)
	return nil
}

// Append implements WAL.
func (w *FileWAL) Append(op Op) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.enc.Encode(op); err != nil {
		return fmt.Errorf("namespace: wal append: %w", err)
	}
	return w.f.Sync()
}

// Checkpoint implements WAL.
func (w *FileWAL) Checkpoint(snapshot []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	tmp := w.ckptPath() + ".tmp"
	if err := os.WriteFile(tmp, snapshot, 0o644); err != nil {
		return fmt.Errorf("namespace: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, w.ckptPath()); err != nil {
		return fmt.Errorf("namespace: checkpoint rename: %w", err)
	}
	w.f.Close()
	if err := os.Remove(w.logPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("namespace: truncate wal: %w", err)
	}
	return w.openLog()
}

// Recover implements WAL.
func (w *FileWAL) Recover() ([]byte, []Op, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var snapshot []byte
	if b, err := os.ReadFile(w.ckptPath()); err == nil {
		snapshot = b
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("namespace: read checkpoint: %w", err)
	}
	var ops []Op
	b, err := os.ReadFile(w.logPath())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return snapshot, nil, nil
		}
		return nil, nil, fmt.Errorf("namespace: read wal: %w", err)
	}
	dec := gob.NewDecoder(bytes.NewReader(b))
	for {
		var op Op
		if err := dec.Decode(&op); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			// A torn final record after a crash is expected; recover what
			// precedes it.
			break
		}
		ops = append(ops, op)
	}
	return snapshot, ops, nil
}

// Close releases the log file.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// snapshotState is the checkpoint payload: every directory and file.
type snapshotState struct {
	Dirs  []string
	Files []wire.FileEntry
}
