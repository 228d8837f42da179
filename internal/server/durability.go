// Durability engine: the WAL record vocabulary, manifest-led per-stripe
// checkpoints, and crash recovery. The contract the pieces add up to —
// acked means replayable — is enforced by three orderings:
//
//  1. ingest appends to the WAL before the store applies and the ack is
//     sent (IngestFrame), both under the shared side of the ingest gate;
//  2. a checkpoint takes the gate exclusively to capture its cut (the
//     WAL's next LSN and the dirty stripes' in-memory encoding), so the
//     snapshot holds exactly the records below the cut;
//  3. stripe files are published atomically first, the manifest last —
//     the manifest rename is the commit point — and only then are
//     superseded stripe files and obsolete WAL segments reclaimed.
//
// Recovery inverts the commit order: load the manifest, restore its
// stripe files (verified by size and CRC32-C), replay the WAL from the
// manifest's LSN. Anything that cannot be explained by a crash (a
// damaged stripe file, a mid-segment checksum failure, a foreign spec)
// is a typed refusal — counting on top of silently dropped acked
// records would be worse than not starting.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	sbitmap "repro"
	"repro/internal/fsx"
	"repro/internal/rules"
	"repro/internal/wal"
)

// WAL record types: the first payload byte of every record says how the
// rest replays.
const (
	walRecFrame = 1 // an SBF1 add frame, exactly as the transport carried it
	walRecMerge = 2 // a Store snapshot envelope merged via /v1/merge
)

var (
	walTagFrame = []byte{walRecFrame}
	walTagMerge = []byte{walRecMerge}
)

// walRecordBytes is the on-disk cost of logging an n-byte transport
// payload: the log's record framing, the type tag, the payload.
func walRecordBytes(n int) int64 { return int64(wal.RecordOverhead + 1 + n) }

// Typed recovery refusals; test with errors.Is. WAL-side refusals carry
// wal.ErrCorrupt / wal.ErrGap instead.
var (
	// ErrCorruptCheckpoint reports a checkpoint that cannot be trusted: an
	// unparsable manifest, a stripe file that is missing or fails its
	// size/CRC check, or stripe contents that do not decode.
	ErrCorruptCheckpoint = errors.New("server: corrupt checkpoint")
	// ErrCheckpointSpecMismatch reports a checkpoint written under a
	// different Spec than the server is configured with.
	ErrCheckpointSpecMismatch = errors.New("server: checkpoint spec mismatch")
)

// manifestName is the checkpoint directory's commit record. The manifest
// is written last, atomically: a checkpoint exists iff its manifest does.
const manifestName = "MANIFEST.json"

// manifest is the durable index of one checkpoint: which stripe files
// make up the store image, the dirty-tracking generation the image was
// cut at (the next incremental pass's "since"), and the WAL LSN replay
// resumes from. Stripes absent from Files held no keys at the cut.
type manifest struct {
	Version  int    `json:"version"`
	Spec     string `json:"spec"`
	Gen      uint64 `json:"generation"`
	WALLSN   uint64 `json:"wal_lsn"`
	Stripes  int    `json:"stripes"`
	Keys     int    `json:"keys"`
	UnixNano int64  `json:"unix_nano"`
	// Watermark records a windowed store's sub-window position at the
	// cut (see sbitmap.Store.WindowState). Optional: absent for
	// unwindowed specs and for manifests written before windowing
	// existed — restore then re-derives the watermark from ring
	// contents alone.
	Watermark *int64         `json:"watermark,omitempty"`
	Files     []manifestFile `json:"files"`
	// Rules is the standing-query engine's restartable state (installed
	// rule specs, per-key firing state, the alert history ring) at the
	// cut. Optional: absent when no rules are installed and for
	// manifests written before the rules engine existed.
	Rules *rules.State `json:"rules,omitempty"`
}

// manifestFile names one stripe's snapshot file with enough redundancy
// (size + CRC32-C) to detect a partially written or bit-rotted file at
// restore time.
type manifestFile struct {
	Stripe int    `json:"stripe"`
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

var ckCRCTable = crc32.MakeTable(crc32.Castagnoli)

func stripeFileName(stripe int, gen uint64) string {
	return fmt.Sprintf("stripe-%05d-%016x.snap", stripe, gen)
}

// Checkpoint writes a durable snapshot of the store to
// Config.CheckpointDir: the stripes dirtied since the previous
// checkpoint re-encode into fresh snapshot files (tmp/fsync/rename
// each), the manifest — naming those plus every carried-forward file —
// commits last, and only then are superseded files and WAL segments
// below the cut reclaimed. The first pass (and the first after a stripe
// -count change) is full; steady state, the write cost scales with how
// many stripes ingest touched, not with the key population. Ingest
// stalls only for the in-memory cut (gate held exclusively around
// MarshalStripes), never for file I/O. Writes are serialized; safe for
// concurrent use.
func (s *Server) Checkpoint() (CheckpointInfo, error) {
	if s.cfg.CheckpointDir == "" {
		return CheckpointInfo{}, ErrNoCheckpointPath
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	start := time.Now()
	since := s.ckSince
	incremental := since > 0 && s.man != nil

	// The cut: with the gate held exclusively no (append, apply) pair is
	// in flight, so the marshaled stripes hold exactly the records below
	// lsn — replay from lsn neither misses nor doubles a record.
	s.gate.Lock()
	var lsn uint64
	if s.wlog != nil {
		lsn = s.wlog.NextLSN()
	}
	pendingAtCut := s.walPending.Load()
	mutationsAtCut := s.mutations.Load()
	var watermark *int64
	if wm, _, ok := s.store.WindowState(); ok && wm != sbitmap.WindowWatermarkNone {
		watermark = &wm
	}
	blobs, cut, err := s.store.MarshalStripes(since)
	keys := s.store.Len()
	s.gate.Unlock()
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("server: checkpoint encode: %w", err)
	}

	// Untouched stripes keep their previous files; dirty stripes publish
	// new ones named by the cut; stripes that became empty drop out of
	// the manifest entirely (absent means empty).
	files := make(map[int]manifestFile)
	if incremental {
		for _, f := range s.man.Files {
			files[f.Stripe] = f
		}
	}
	written, bytesWritten := 0, 0
	for idx, blob := range blobs {
		n, err := sbitmap.StripeSnapshotKeys(blob)
		if err != nil {
			return CheckpointInfo{}, fmt.Errorf("server: checkpoint encode: %w", err)
		}
		if n == 0 {
			delete(files, idx)
			continue
		}
		name := stripeFileName(idx, cut)
		if err := fsx.WriteFileAtomic(filepath.Join(s.cfg.CheckpointDir, name), blob); err != nil {
			return CheckpointInfo{}, fmt.Errorf("server: checkpoint write: %w", err)
		}
		files[idx] = manifestFile{
			Stripe: idx,
			Name:   name,
			Bytes:  int64(len(blob)),
			CRC32C: crc32.Checksum(blob, ckCRCTable),
		}
		written++
		bytesWritten += len(blob)
	}

	// Make the whole log durable before the manifest claims "this image
	// plus the log from lsn" reconstructs the store: after the commit the
	// durable point covers every ack so far, under any fsync policy.
	if s.wlog != nil {
		if err := s.wlog.Sync(); err != nil {
			return CheckpointInfo{}, fmt.Errorf("server: checkpoint wal sync: %w", err)
		}
	}

	man := &manifest{
		Version:   1,
		Spec:      s.store.Spec().String(),
		Gen:       cut,
		WALLSN:    lsn,
		Stripes:   s.store.StripeCount(),
		Keys:      keys,
		UnixNano:  start.UnixNano(),
		Watermark: watermark,
	}
	// The rules snapshot is taken outside the gate: rule state is
	// advisory (a firing flag, alert history), not counted data — an
	// alert that lands in the instant between the cut and here simply
	// rides in this manifest instead of the next.
	if s.rules != nil {
		if rs := s.rules.Snapshot(); len(rs.Rules) > 0 || len(rs.Alerts) > 0 || rs.NextAlertID > 1 {
			man.Rules = &rs
		}
	}
	for _, f := range files {
		man.Files = append(man.Files, f)
	}
	sort.Slice(man.Files, func(i, j int) bool { return man.Files[i].Stripe < man.Files[j].Stripe })
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("server: checkpoint manifest encode: %w", err)
	}
	if err := fsx.WriteFileAtomic(filepath.Join(s.cfg.CheckpointDir, manifestName), data); err != nil {
		return CheckpointInfo{}, fmt.Errorf("server: checkpoint manifest: %w", err)
	}

	// Commit point passed: adopt the new chain, then reclaim what it
	// superseded. Reclamation is best-effort — a leaked file or segment
	// costs disk, never correctness.
	s.man, s.ckSince, s.ckLSN = man, cut, lsn
	s.walPending.Add(-pendingAtCut)
	s.mutations.Add(-mutationsAtCut)
	s.lastDurableUnixNano.Store(time.Now().UnixNano())
	s.gcStripeFiles(man)
	if s.wlog != nil {
		_ = s.wlog.TruncateBefore(lsn)
	}

	elapsed := time.Since(start)
	s.checkpoints.Add(1)
	s.lastCkUnixNano.Store(start.UnixNano())
	s.lastCkBytes.Store(int64(bytesWritten))
	s.lastCkNanos.Store(int64(elapsed))
	s.lastCkStripes.Store(int64(written))
	return CheckpointInfo{
		Path:           s.cfg.CheckpointDir,
		Bytes:          bytesWritten,
		Keys:           keys,
		Seconds:        elapsed.Seconds(),
		StripesWritten: written,
		Incremental:    incremental,
	}, nil
}

// gcStripeFiles removes stripe snapshot files the committed manifest no
// longer references. Best-effort: a failure leaks disk, not data.
func (s *Server) gcStripeFiles(man *manifest) {
	keep := make(map[string]bool, len(man.Files))
	for _, f := range man.Files {
		keep[f.Name] = true
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "stripe-") || !strings.HasSuffix(name, ".snap") || keep[name] {
			continue
		}
		if os.Remove(filepath.Join(s.cfg.CheckpointDir, name)) == nil {
			removed = true
		}
	}
	if removed {
		_ = fsx.SyncDir(s.cfg.CheckpointDir)
	}
}

// loadManifest restores the newest checkpoint from dir. A missing
// manifest is a fresh start (nil manifest, no error); anything else that
// stops the restore is a typed refusal: the manifest must parse, its
// spec must equal the configured one, and every referenced stripe file
// must exist, match its recorded size and CRC32-C, and decode. The
// restored store's dirty-tracking generation is fast-forwarded to the
// manifest's, so the next incremental checkpoint captures exactly the
// post-restore mutations.
func loadManifest(dir string, spec sbitmap.Spec, opts []sbitmap.StoreOption) (*manifest, *sbitmap.Store[string], int, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("server: reading checkpoint manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, nil, 0, fmt.Errorf("%w: refusing to start: manifest %s does not parse: %v", ErrCorruptCheckpoint, path, err)
	}
	if man.Version != 1 {
		return nil, nil, 0, fmt.Errorf("%w: refusing to start: manifest %s has unknown version %d", ErrCorruptCheckpoint, path, man.Version)
	}
	manSpec, err := sbitmap.ParseSpec(man.Spec)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: refusing to start: manifest %s holds unparsable spec %q: %v", ErrCorruptCheckpoint, path, man.Spec, err)
	}
	if manSpec != spec {
		return nil, nil, 0, fmt.Errorf("%w: refusing to start: checkpoint %s holds spec %s, but the server is configured with %s (move the checkpoint aside to start fresh, or fix -spec)",
			ErrCheckpointSpecMismatch, path, man.Spec, spec)
	}
	st, err := sbitmap.NewStore[string](spec, opts...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("server: %w", err)
	}
	total := 0
	for _, f := range man.Files {
		blob, err := os.ReadFile(filepath.Join(dir, f.Name))
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, 0, fmt.Errorf("%w: refusing to start: stripe file %s is referenced by the manifest but missing", ErrCorruptCheckpoint, f.Name)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("server: reading stripe file %s: %w", f.Name, err)
		}
		if int64(len(blob)) != f.Bytes || crc32.Checksum(blob, ckCRCTable) != f.CRC32C {
			return nil, nil, 0, fmt.Errorf("%w: refusing to start: stripe file %s is damaged (size or checksum differs from the manifest's record)", ErrCorruptCheckpoint, f.Name)
		}
		n, err := st.RestoreStripe(blob)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%w: refusing to start: stripe file %s: %v", ErrCorruptCheckpoint, f.Name, err)
		}
		total += n
	}
	if total != man.Keys {
		return nil, nil, 0, fmt.Errorf("%w: refusing to start: stripe files restore %d keys, manifest records %d", ErrCorruptCheckpoint, total, man.Keys)
	}
	st.SetGeneration(man.Gen)
	if man.Watermark != nil {
		// Stripe decode already re-derived a watermark from ring
		// contents; the recorded one only advances it (covers the case
		// where the watermark window's keys were all empty or evicted).
		st.SetWindowState(*man.Watermark, -1)
	}
	return &man, st, total, nil
}

// replayWAL re-runs every log record from LSN from through the same
// apply paths live ingest uses, returning how many records replayed and
// their pending-replay byte total. A CRC-valid record that does not
// decode is corruption one layer up from the log — still a typed,
// errors.Is(wal.ErrCorrupt) refusal.
func (s *Server) replayWAL(from uint64) (records int, pending int64, err error) {
	var f Frame
	defer f.Release()
	err = s.wlog.Replay(from, func(lsn uint64, payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("record %d has an empty payload: %w", lsn, wal.ErrCorrupt)
		}
		switch payload[0] {
		case walRecFrame:
			if err := f.DecodeBorrowed(payload[1:]); err != nil {
				return fmt.Errorf("record %d does not decode as an add frame (%v): %w", lsn, err, wal.ErrCorrupt)
			}
			s.applyFrame(&f)
		case walRecMerge:
			peer, spec, err := s.decodePeer(payload[1:])
			if err != nil {
				return fmt.Errorf("record %d does not decode as a merge snapshot (%v): %w", lsn, err, wal.ErrCorrupt)
			}
			if peer == nil {
				return fmt.Errorf("record %d merges spec %s into a %s store: %w", lsn, spec, s.store.Spec(), wal.ErrCorrupt)
			}
			if err := s.store.Merge(peer); err != nil {
				return fmt.Errorf("record %d: %w", lsn, err)
			}
		default:
			return fmt.Errorf("record %d has unknown type %d: %w", lsn, payload[0], wal.ErrCorrupt)
		}
		records++
		pending += walRecordBytes(len(payload) - 1)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return records, pending, nil
}

// durabilityLag reports how long the oldest acked-but-not-yet-durable
// mutation has been waiting, in seconds; 0 means every ack is backed by
// stable storage. With a WAL the figure is the age of the oldest
// unsynced append (fsync always keeps it pinned at 0; a checkpoint's
// Sync resets it under the lazier policies). Without a WAL it is the
// time since the last checkpoint, counted only while un-checkpointed
// mutations exist. With no durability configured at all there is
// nothing to lag behind: 0.
func (s *Server) durabilityLag(now time.Time) float64 {
	if s.wlog != nil {
		ws := s.wlog.Stats()
		if ws.OldestUnsyncedUnixNano == 0 {
			return 0
		}
		return max(0, now.Sub(time.Unix(0, ws.OldestUnsyncedUnixNano)).Seconds())
	}
	if s.cfg.CheckpointDir == "" || s.mutations.Load() == 0 {
		return 0
	}
	return max(0, now.Sub(time.Unix(0, s.lastDurableUnixNano.Load())).Seconds())
}
