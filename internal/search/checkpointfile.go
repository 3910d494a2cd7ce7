package search

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Typed checkpoint-load failures. Callers branch on these with errors.Is to
// give actionable messages (a checksum error means a torn or corrupted file;
// a fingerprint error means the wrong input files were supplied on resume).
var (
	// ErrChecksum: the envelope CRC does not match the payload (torn write
	// or bit rot). ReadCheckpointFile falls back to the .bak rotation.
	ErrChecksum = errors.New("checkpoint checksum mismatch")
	// ErrVersion: the file was written by an incompatible format version.
	ErrVersion = errors.New("checkpoint version not supported")
	// ErrFingerprint: the checkpoint was taken on different constraint
	// trees (or the same trees in a different order) than those supplied.
	ErrFingerprint = errors.New("checkpoint input fingerprint mismatch")
)

// envelopeFormat frames every checkpoint file: a small JSON wrapper holding
// a CRC32 (IEEE) over the exact payload bytes, so a torn write is detected
// on load instead of resuming from silently-bad state.
const envelopeFormat = 2

type envelope struct {
	Format  int             `json:"format"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// encode marshals the checkpoint inside a checksummed envelope.
func (cp *Checkpoint) encode() ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("search: encoding checkpoint: %w", err)
	}
	env := envelope{
		Format:  envelopeFormat,
		CRC32:   crc32.ChecksumIEEE(payload),
		Payload: payload,
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return nil, fmt.Errorf("search: encoding checkpoint envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeCheckpoint parses an envelope of format envelopeFormat around a
// payload of version checkpointVersion, verifying the CRC. Anything else —
// a bare pre-envelope file, another format, another payload version —
// fails with ErrVersion.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("search: reading checkpoint: %w", err)
	}
	if env.Format != envelopeFormat {
		return nil, fmt.Errorf("search: envelope format %d: %w", env.Format, ErrVersion)
	}
	if crc32.ChecksumIEEE(env.Payload) != env.CRC32 {
		return nil, fmt.Errorf("search: %w (stored %08x)", ErrChecksum, env.CRC32)
	}
	var cp Checkpoint
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return nil, fmt.Errorf("search: reading checkpoint payload: %w", err)
	}
	// The payload-version check lives here (not only in Validate) so an
	// unsupported payload version makes ReadCheckpointFile fall back to the
	// .bak rotation, exactly like a torn envelope would.
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("search: checkpoint payload version %d: %w", cp.Version, ErrVersion)
	}
	return &cp, nil
}

// WriteFile persists the checkpoint crash-safely: the envelope is written
// to path+".tmp" and fsynced, any existing checkpoint is rotated to
// path+".bak", and the temp file is renamed into place (with a directory
// fsync) so the primary is always either the old complete file or the new
// complete file — never a torn mix.
func (cp *Checkpoint) WriteFile(path string) error {
	data, err := cp.encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("search: writing checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("search: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("search: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("search: closing checkpoint: %w", err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".bak"); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("search: rotating checkpoint backup: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("search: installing checkpoint: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss. Errors are
// ignored: some filesystems refuse directory fsync and the rename itself
// is still atomic with respect to crashes of this process.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// ReadCheckpointFile loads a checkpoint written by WriteFile. If the
// primary file is missing, torn (ErrChecksum) or otherwise unreadable, it
// falls back to the ".bak" rotation; if both fail, the primary's error is
// returned (wrapped, so errors.Is against the typed errors still works).
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	cp, primaryErr := readCheckpointPath(path)
	if primaryErr == nil {
		return cp, nil
	}
	if cp, bakErr := readCheckpointPath(path + ".bak"); bakErr == nil {
		return cp, nil
	}
	return nil, fmt.Errorf("checkpoint %s (and backup) unreadable: %w", path, primaryErr)
}

func readCheckpointPath(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}
