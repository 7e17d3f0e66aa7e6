package archive

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Per-volume durable state: the checkpoint (commit record) and the lease
// (liveness claim). Checkpoints carry correctness — a valid checkpoint means
// the volume's output bytes are on disk — so they are CRC-framed and written
// after an fsync of the output. Leases carry no correctness at all: they
// only keep live workers from duplicating effort, so a torn, stale or even
// stolen lease can cost duplicate work but never a wrong byte.

// checkpointMagic identifies a framed checkpoint file ("DCKP", version 1).
var checkpointMagic = [5]byte{'D', 'C', 'K', 'P', 1}

// ErrCheckpointCorrupt marks a checkpoint file that is truncated, torn or
// damaged. The worker's response is always the same: remove it and redo the
// volume — redo is idempotent, so corruption costs time, never bytes.
var ErrCheckpointCorrupt = errors.New("archive: checkpoint corrupt")

// Checkpoint is a volume's commit record, written only after the volume's
// output region has been written and synced.
type Checkpoint struct {
	// ID is the volume the record commits.
	ID uint32 `json:"id"`
	// Outcome is the decode classification: "decoded", "salvaged" or
	// "failed" (core.VolumeOutcome.String()).
	Outcome string `json:"outcome"`
	// Attempts counts reconstruct+decode attempts spent on the volume.
	Attempts int `json:"attempts"`
	// Bytes is the payload length written to the output region.
	Bytes int64 `json:"bytes"`
	// DamageBytes estimates unverified/wrong bytes (0 for a clean decode).
	DamageBytes int `json:"damageBytes"`
	// SpilledReads counts demux spill attributed to the volume.
	SpilledReads int `json:"spilledReads,omitempty"`
	// DamagedUnits is the damage map: encoding units whose bytes are
	// best-effort (see codec.Report.DamagedUnits).
	DamagedUnits []int `json:"damagedUnits,omitempty"`
	// OutputCRC is the IEEE CRC32 of the bytes actually written to the
	// output region (padding included) — the audit's ground truth for
	// salvaged and failed volumes, where the manifest CRC cannot match.
	OutputCRC uint32 `json:"outputCRC"`
	// Owner identifies the worker that committed the volume.
	Owner string `json:"owner,omitempty"`
	// Err records the failure for a "failed" outcome.
	Err string `json:"err,omitempty"`
}

// MarshalCheckpoint frames cp for durable storage: magic+version, uint32
// payload length, JSON payload, CRC32 of the payload. Truncation at any byte
// boundary is detected by UnmarshalCheckpoint.
func MarshalCheckpoint(cp *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(checkpointMagic)+4+len(payload)+4)
	out = append(out, checkpointMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out, nil
}

// UnmarshalCheckpoint parses a framed checkpoint, returning
// ErrCheckpointCorrupt for any truncation, framing damage, checksum
// mismatch or malformed payload.
func UnmarshalCheckpoint(raw []byte) (*Checkpoint, error) {
	headerLen := len(checkpointMagic) + 4
	if len(raw) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the smallest valid checkpoint", ErrCheckpointCorrupt, len(raw))
	}
	if [5]byte(raw[:5]) != checkpointMagic {
		return nil, fmt.Errorf("%w: magic %x", ErrCheckpointCorrupt, raw[:5])
	}
	n := binary.BigEndian.Uint32(raw[5:])
	if n != uint32(len(raw)-headerLen-4) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file carries %d (torn write?)",
			ErrCheckpointCorrupt, n, len(raw)-headerLen-4)
	}
	payload := raw[headerLen : headerLen+int(n)]
	want := binary.BigEndian.Uint32(raw[headerLen+int(n):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCheckpointCorrupt, got, want)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	return &cp, nil
}

// ReadCheckpoint reads and validates volume id's checkpoint file. A missing
// file returns fs.ErrNotExist; anything unparseable is ErrCheckpointCorrupt.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalCheckpoint(raw)
}

// lease is the JSON body of a lease file.
type lease struct {
	// Owner identifies the claiming worker (host:pid or a test label).
	Owner string `json:"owner"`
	// PID is the claiming process, for humans debugging a stuck archive.
	PID int `json:"pid"`
	// RenewedUnixMilli is the last renewal time. A lease whose renewal age
	// exceeds the fleet's StaleAfter is presumed dead and may be taken over.
	RenewedUnixMilli int64 `json:"renewedUnixMilli"`
}

// marshalLease renders the lease body for owner at time now.
func marshalLease(owner string, now time.Time) []byte {
	raw, err := json.Marshal(lease{Owner: owner, PID: os.Getpid(), RenewedUnixMilli: now.UnixMilli()})
	if err != nil {
		// A struct of three scalar fields cannot fail to marshal.
		panic(err)
	}
	return raw
}

// ClaimLease attempts to claim path for owner. Exactly one claimant can win:
// the claim publishes a fully written lease body with a hard link, which
// fails if path exists, and a stale lease (renewal older than staleAfter, or
// unreadable) is first retired via an atomic rename that only one contender
// can win. It returns whether the claim succeeded and whether it required
// retiring a stale lease (a takeover).
//
// The body is written to a private <lease>.claim-* file before it is linked
// into place because a reader must never see a claim half-written: an empty
// or torn body reads as stale, and a second contender would take it over.
// The state directory must therefore be on a filesystem with hard links.
// A claimant killed before it removes its claim file leaves it behind;
// RemoveStaleClaims deletes such files.
func ClaimLease(path, owner string, staleAfter time.Duration) (claimed, takeover bool, err error) {
	body, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".claim-*")
	if err != nil {
		return false, false, err
	}
	defer os.Remove(body.Name()) //dnalint:allow errflow -- best-effort cleanup: the published lease is a separate link
	_, werr := body.Write(marshalLease(owner, time.Now()))
	if cerr := body.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return false, false, werr
	}
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(body.Name(), path)
		if err == nil {
			return true, takeover, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return false, false, err
		}
		// A lease exists. Live if its renewal is fresh; stale (takeover
		// candidate) if old, torn or unreadable — a reader that cannot
		// prove liveness must assume death, or one crashed worker wedges
		// its volume forever.
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				continue // released between our create and read; retry
			}
			return false, false, rerr
		}
		var l lease
		if jerr := json.Unmarshal(raw, &l); jerr == nil {
			age := time.Since(time.UnixMilli(l.RenewedUnixMilli))
			if age < staleAfter {
				return false, false, nil // held by a live worker
			}
		}
		// Retire the stale lease. The rename is the race arbiter: of all
		// contenders (and the possibly-still-running old owner's renewal),
		// exactly one rename moves the file; losers see ENOENT and retry
		// the claim loop, where they will contend on the hard link.
		stale := path + ".stale"
		if rerr := os.Rename(path, stale); rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				continue
			}
			return false, false, rerr
		}
		if rerr := os.Remove(stale); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			return false, false, rerr
		}
		takeover = true
	}
	// Both attempts lost their race; report contention, caller backs off.
	return false, false, nil
}

// RemoveStaleClaims deletes the lease claim files (<lease>.claim-*) in the
// state directory dir that were last modified more than olderThan ago. A
// live claim file exists only between its write and its link in ClaimLease,
// so with olderThan at the lease staleness bound only files left by a killed
// claimant are removed.
func RemoveStaleClaims(dir string, olderThan time.Duration) error {
	names, err := filepath.Glob(filepath.Join(dir, "*.lease.claim-*"))
	if err != nil {
		return err
	}
	for _, name := range names {
		fi, err := os.Stat(name)
		if err == nil && time.Since(fi.ModTime()) > olderThan {
			err = os.Remove(name)
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// ErrLeaseLost reports that a lease no longer records its claimant: the file
// is gone or carries another owner. The holder was presumed dead and taken
// over — it must abandon the volume without committing a checkpoint and let
// the new owner finish.
var ErrLeaseLost = errors.New("archive: lease lost")

// VerifyLease checks that path still records owner's claim. A missing file
// or one naming a different owner returns ErrLeaseLost; a torn body that
// does not parse is treated as the holder's own torn renewal (renewals are
// atomic, so a torn body predates this code) and passes.
func VerifyLease(path, owner string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return ErrLeaseLost
		}
		return err
	}
	var l lease
	if jerr := json.Unmarshal(raw, &l); jerr == nil && l.Owner != owner {
		return ErrLeaseLost
	}
	return nil
}

// RenewLease refreshes the lease's renewal timestamp, first verifying the
// lease still records owner: renewing a lease that was taken over would
// fight the new owner for the file, so loss surfaces as ErrLeaseLost and the
// caller abandons instead. Renewal goes through an atomic replace so a
// concurrent reader never sees a torn lease body. Any other renewal error is
// survivable — the lease may be taken over and the volume decoded twice,
// which costs time, never bytes.
func RenewLease(path, owner string) error {
	if err := VerifyLease(path, owner); err != nil {
		return err
	}
	return AtomicWriteFile(path, marshalLease(owner, time.Now()), "."+fmt.Sprintf("%d", os.Getpid()))
}

// ReleaseLease removes the lease file. A missing file is not an error: a
// takeover may already have retired it.
func ReleaseLease(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
