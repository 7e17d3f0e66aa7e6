package archive

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"dnastore/internal/codec"
	"dnastore/internal/core"
	"dnastore/internal/exec"
	"dnastore/internal/obs"
)

// Hooks are test/chaos instrumentation points in the worker's per-volume
// commit sequence. Production runs leave them nil.
type Hooks struct {
	// OutputWritten fires after a volume's output bytes are written and
	// synced, before its checkpoint is written — the widest crash window.
	// A chaos.ProcessKiller wired here dies exactly "mid-volume".
	OutputWritten func(id uint32)
	// WriteCheckpoint overrides checkpoint persistence (default:
	// AtomicWriteFile). A chaos.TornCheckpoints wraps it to simulate torn
	// commit records.
	WriteCheckpoint func(path string, data []byte) error
}

// WorkerOptions configures RunWorker. The zero value gets sensible defaults.
type WorkerOptions struct {
	// Owner identifies this worker in leases and checkpoints. Defaults to
	// host:pid.
	Owner string
	// StaleAfter is how long an unrenewed lease is presumed live; beyond it
	// any worker may take the lease over. Leases renew every StaleAfter/3.
	// Defaults to 30s. Too short risks duplicate work (never wrong bytes);
	// too long delays recovery from a dead worker.
	StaleAfter time.Duration
	// Backoff and MaxBackoff bound the exponential sleep between sweeps
	// when every remaining volume is leased by other live workers.
	// Default 50ms and 2s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Stream carries the per-volume decode options (RunOptions: retries,
	// best-effort, stage timeouts). VolumeBytes is always taken from the
	// manifest; a fleet must use identical RunOptions across workers for
	// the byte-identity guarantee to span processes.
	Stream core.StreamOptions
	// Hooks are chaos/test instrumentation points.
	Hooks Hooks
	// Metrics, when set, overrides the pipeline's observability sink for
	// this worker: per-stage counters of every decoded volume (cluster,
	// reconstruct, decode) accumulate into it, plus a "volume" stage
	// tracking the worker's claim/commit loop (items_in = claims,
	// items_out = commits, retries = corrupt checkpoints redone, spills =
	// volumes abandoned to a lease takeover). Nil inherits the pipeline's
	// own Metrics registry.
	Metrics *obs.Registry
}

// withDefaults fills in WorkerOptions defaults.
func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Owner == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		o.Owner = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 30 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	return o
}

// WorkerResult summarizes one worker process's contribution.
type WorkerResult struct {
	// Decoded, Salvaged and Failed count volumes this worker committed, by
	// outcome.
	Decoded, Salvaged, Failed int
	// Skipped counts volumes found already committed by another worker.
	Skipped int
	// Takeovers counts stale leases this worker retired.
	Takeovers int
	// Redone counts corrupt checkpoints this worker removed and re-decoded.
	Redone int
	// RenewalErrors counts failed lease renewals (survivable: the lease may
	// be taken over, costing duplicate work, never bytes).
	RenewalErrors int
	// Abandoned counts volumes dropped mid-decode because the lease was lost
	// (taken over after this worker was presumed dead). An abandoned volume
	// commits no checkpoint — the new owner's redo is the record of truth —
	// and is revisited on a later sweep if still uncommitted.
	Abandoned int
}

// Committed returns the number of volumes this worker committed itself.
func (r WorkerResult) Committed() int { return r.Decoded + r.Salvaged + r.Failed }

// RunWorker decodes archive volumes until every volume of dir's manifest has
// a valid checkpoint, writing recovered bytes into outPath at each volume's
// manifest offset. Many workers may run concurrently on the same archive —
// in one process or many, sharing outPath — and any of them may be killed at
// any instruction: a restarted fleet converges to the same bytes (see the
// package comment for the crash-consistency argument).
//
// The pipeline needs Clusterer and Reconstructor configured; a nil Codec is
// reconstructed from the manifest (a configured one is validated against
// it). The Simulator is not used.
func RunWorker(ctx context.Context, p *core.Pipeline, dir, outPath string, o WorkerOptions) (WorkerResult, error) {
	var res WorkerResult
	o = o.withDefaults()
	if p == nil || p.Clusterer == nil || p.Reconstructor == nil {
		return res, core.ErrNotConfigured
	}
	d := Dir(dir)
	m, err := codec.ReadManifest(d.ManifestPath())
	if err != nil {
		return res, err
	}
	work := *p
	if o.Metrics != nil {
		work.Metrics = o.Metrics
	}
	if work.Codec == nil {
		c, err := m.Codec()
		if err != nil {
			return res, err
		}
		work.Codec = c
	} else if err := m.Validate(work.Codec); err != nil {
		return res, err
	}
	opts := o.Stream
	opts.VolumeBytes = m.VolumeBytes
	if err := RemoveStaleClaims(d.StatePath(), o.StaleAfter); err != nil {
		return res, err
	}

	out, err := os.OpenFile(outPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return res, err
	}
	defer out.Close() //dnalint:allow errflow -- every committed volume was explicitly synced; close cannot lose acknowledged bytes
	// Size the output up front so every volume's WriteAt lands inside the
	// file; truncation to the same size is idempotent across workers.
	if err := out.Truncate(m.ArchiveBytes); err != nil {
		return res, err
	}
	shards, err := os.Open(d.ShardsPath())
	if err != nil {
		return res, err
	}
	defer shards.Close() //dnalint:allow errflow -- read-only file: a close error cannot lose data

	w := &worker{
		d: d, m: m, p: &work, o: o, opts: opts,
		out: out, shards: shards,
		done: make(map[uint32]bool, len(m.Volumes)),
		vol:  work.Metrics.Stage("volume"),
	}
	backoff := o.Backoff
	for {
		progress, remaining, err := w.sweep(ctx)
		if err != nil {
			w.res.RenewalErrors = int(w.renewErrs.Load())
			return w.res, err
		}
		if remaining == 0 {
			w.res.RenewalErrors = int(w.renewErrs.Load())
			return w.res, nil
		}
		if progress {
			backoff = o.Backoff
			continue
		}
		// Every remaining volume is leased by a live worker: back off
		// exponentially before contending again (a dead worker's lease goes
		// stale within StaleAfter, so the sleep is bounded by it too).
		select {
		case <-ctx.Done():
			w.res.RenewalErrors = int(w.renewErrs.Load())
			return w.res, fmt.Errorf("%w: archive worker: %w", core.ErrCancelled, context.Cause(ctx))
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > o.MaxBackoff {
			backoff = o.MaxBackoff
		}
		if backoff > o.StaleAfter {
			backoff = o.StaleAfter
		}
	}
}

// worker is the state of one RunWorker invocation.
type worker struct {
	d         Dir
	m         *codec.Manifest
	p         *core.Pipeline
	o         WorkerOptions
	opts      core.StreamOptions
	out       *os.File
	shards    *os.File
	done      map[uint32]bool
	res       WorkerResult
	renewErrs atomic.Int64
	// vol is the "volume" stage of the worker's metrics sink (nil when no
	// registry is wired): items_in counts claims, items_out commits,
	// retries redone checkpoints, spills abandoned volumes.
	vol *obs.Stage
}

// sweep makes one pass over the volume table, claiming and decoding every
// volume it can. It reports whether any volume became done this pass and how
// many remain without a valid checkpoint.
func (w *worker) sweep(ctx context.Context) (progress bool, remaining int, err error) {
	before := len(w.done)
	for _, mv := range w.m.Volumes {
		if w.done[mv.ID] {
			continue
		}
		if ctx.Err() != nil {
			return false, 0, fmt.Errorf("%w: archive worker: %w", core.ErrCancelled, context.Cause(ctx))
		}
		corrupt := false
		ck, cerr := ReadCheckpoint(w.d.CheckpointPath(mv.ID))
		switch {
		case cerr == nil && ck.ID == mv.ID:
			w.done[mv.ID] = true
			w.res.Skipped++
			continue
		case errors.Is(cerr, fs.ErrNotExist):
		case cerr == nil || errors.Is(cerr, ErrCheckpointCorrupt):
			// Torn/damaged record, or one committing the wrong volume id:
			// either way the volume is not reliably done.
			corrupt = true
		default:
			return false, 0, cerr
		}
		claimed, takeover, lerr := ClaimLease(w.d.LeasePath(mv.ID), w.o.Owner, w.o.StaleAfter)
		if lerr != nil {
			return false, 0, lerr
		}
		if !claimed {
			continue // held by a live worker; revisit next sweep
		}
		if takeover {
			w.res.Takeovers++
		}
		w.vol.AddIn(1)
		if derr := w.decodeVolume(ctx, mv, corrupt); derr != nil {
			return false, 0, derr
		}
	}
	progress = len(w.done) > before
	remaining = len(w.m.Volumes) - len(w.done)
	return progress, remaining, nil
}

// decodeVolume decodes one claimed volume end to end: commit sequence is
// decode → WriteAt(output) → Sync → verify lease → checkpoint → release
// lease. The lease is released on every path except abandonment (the file
// then belongs to the new owner); the checkpoint is only written after the
// output bytes are durable AND the lease still records this worker, which is
// the whole crash-consistency story: a worker that was presumed dead and
// taken over must not publish a commit record behind the new owner's back.
func (w *worker) decodeVolume(ctx context.Context, mv codec.ManifestVolume, corrupt bool) (err error) {
	start := time.Now()
	defer func() {
		w.vol.AddCalls(1)
		w.vol.AddBusy(time.Since(start))
	}()
	leasePath := w.d.LeasePath(mv.ID)
	abandoned := false
	defer func() {
		if abandoned {
			// The lease file is gone or records the new owner; removing it
			// here would steal the takeover's claim.
			return
		}
		if rerr := ReleaseLease(leasePath); rerr != nil && err == nil {
			err = rerr
		}
	}()
	ckptPath := w.d.CheckpointPath(mv.ID)
	// Double-check under the lease: the previous owner may have committed
	// between our pre-claim check and the claim winning.
	if ck, cerr := ReadCheckpoint(ckptPath); cerr == nil && ck.ID == mv.ID {
		w.done[mv.ID] = true
		w.res.Skipped++
		return nil
	} else if cerr != nil && !errors.Is(cerr, fs.ErrNotExist) {
		if corrupt {
			w.res.Redone++
			w.vol.AddRetries(1)
		}
		// Remove the unusable record under the lease; we are about to
		// replace it after an idempotent redo.
		if rerr := os.Remove(ckptPath); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			return rerr
		}
	}

	// Renew the lease in the background while the decode runs, so a slow
	// volume does not go stale under a live worker. A renewal that finds the
	// lease lost (taken over) stops renewing and raises leaseLost; the commit
	// path re-verifies synchronously before the checkpoint, so the flag is
	// belt-and-braces for decodes whose loss lands between ticks.
	var leaseLost atomic.Bool
	stopRenew := make(chan struct{})
	renew := exec.NewGroup(func(any) { w.renewErrs.Add(1) })
	renew.Go(func() {
		t := time.NewTicker(w.o.StaleAfter / 3)
		defer t.Stop()
		for {
			select {
			case <-stopRenew:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if rerr := RenewLease(leasePath, w.o.Owner); rerr != nil {
					if errors.Is(rerr, ErrLeaseLost) {
						leaseLost.Store(true)
						return
					}
					w.renewErrs.Add(1)
				}
			}
		}
	})
	defer func() { close(stopRenew); renew.Wait() }()

	wk := w.loadShard(mv)
	vr := w.p.DecodeVolume(ctx, wk, w.opts)
	if errors.Is(vr.Err, core.ErrCancelled) || ctx.Err() != nil {
		// Commit nothing on cancellation: a half-considered volume must be
		// redone by whoever resumes, not checkpointed as failed.
		return fmt.Errorf("%w: archive worker volume %d: %w", core.ErrCancelled, mv.ID, context.Cause(ctx))
	}

	buf := vr.Data
	if int64(len(buf)) != mv.Length {
		// Damaged or short volume: zero-fill its region, exactly as the
		// RunStream writer does, so offsets (and bytes) match it.
		padded := make([]byte, mv.Length)
		copy(padded, buf)
		buf = padded
	}
	if _, werr := w.out.WriteAt(buf, mv.Offset); werr != nil {
		return werr
	}
	if serr := w.out.Sync(); serr != nil {
		return serr
	}
	if w.o.Hooks.OutputWritten != nil {
		w.o.Hooks.OutputWritten(mv.ID)
	}

	// Last gate before publication: the checkpoint may only be written while
	// the lease still records this worker. The output bytes already written
	// are byte-identical to the new owner's (idempotent redo), so they stand;
	// the commit record is the new owner's to write.
	if verr := VerifyLease(leasePath, w.o.Owner); verr != nil || leaseLost.Load() {
		if verr != nil && !errors.Is(verr, ErrLeaseLost) {
			return verr
		}
		abandoned = true
		w.res.Abandoned++
		w.vol.AddSpills(1)
		return nil
	}

	cp := &Checkpoint{
		ID:           mv.ID,
		Outcome:      vr.Outcome.String(),
		Attempts:     vr.Attempts,
		Bytes:        mv.Length,
		DamageBytes:  vr.DamageBytes,
		SpilledReads: wk.Spilled,
		DamagedUnits: vr.Report.DamagedUnits(),
		OutputCRC:    crc32.ChecksumIEEE(buf),
		Owner:        w.o.Owner,
	}
	if vr.Err != nil {
		cp.Err = vr.Err.Error()
	}
	raw, merr := MarshalCheckpoint(cp)
	if merr != nil {
		return merr
	}
	writeCkpt := w.o.Hooks.WriteCheckpoint
	if writeCkpt == nil {
		suffix := fmt.Sprintf(".%d", os.Getpid())
		writeCkpt = func(path string, data []byte) error { return AtomicWriteFile(path, data, suffix) }
	}
	if werr := writeCkpt(ckptPath, raw); werr != nil {
		return werr
	}

	w.done[mv.ID] = true
	w.vol.AddOut(1)
	switch vr.Outcome {
	case core.OutcomeDecoded:
		w.res.Decoded++
	case core.OutcomeSalvaged:
		w.res.Salvaged++
	default:
		w.res.Failed++
	}
	return nil
}

// loadShard reads volume mv's framed read shard, cross-checking the DVOL
// header against the manifest entry. Any damage — truncation, checksum,
// id or geometry mismatch — degrades the volume (Err set) instead of
// failing the worker: the volume commits as failed/salvaged and the rest of
// the archive still decodes.
func (w *worker) loadShard(mv codec.ManifestVolume) core.VolumeWork {
	wk := core.VolumeWork{
		ID: mv.ID, Bytes: int(mv.Length), Strands: mv.Strands,
		Spilled: mv.Spilled, DataCRC: mv.CRC,
	}
	sr := io.NewSectionReader(w.shards, mv.ShardOffset, mv.ShardLength)
	h, payload, err := codec.ReadVolumeFrame(sr, mv.ShardLength)
	if err != nil {
		wk.Err = fmt.Errorf("archive: volume %d shard: %w", mv.ID, err)
		return wk
	}
	if h.ID != mv.ID {
		wk.Err = fmt.Errorf("archive: volume %d shard: %w: frame carries volume %d", mv.ID, codec.ErrVolumeHeader, h.ID)
		return wk
	}
	if geom := w.p.Codec.Params(); h.N != geom.N || h.K != geom.K || h.PayloadBytes != geom.PayloadBytes {
		wk.Err = fmt.Errorf("archive: volume %d shard: %w: frame geometry N=%d K=%d payload=%d, codec has N=%d K=%d payload=%d",
			mv.ID, codec.ErrVolumeHeader, h.N, h.K, h.PayloadBytes, geom.N, geom.K, geom.PayloadBytes)
		return wk
	}
	reads, err := unmarshalReads(payload)
	if err != nil {
		wk.Err = fmt.Errorf("archive: volume %d shard: %w", mv.ID, err)
		return wk
	}
	if len(reads) != mv.Reads {
		wk.Err = fmt.Errorf("archive: volume %d shard: %d reads, manifest says %d", mv.ID, len(reads), mv.Reads)
		return wk
	}
	wk.Reads = reads
	return wk
}
