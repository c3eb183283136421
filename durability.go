package iq

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"iq/internal/obs"
	"iq/internal/wal"
)

// Durability couples a System to a data directory through a Store:
//
//	checkpoint-<gen>.snap   atomic snapshot of one epoch (snapshot.go format)
//	wal-<gen>-<seq>.log     mutation log segments (internal/wal format)
//
// Every committed transaction — one mutation, or one ApplyBatch — is
// appended to the WAL, stamped with the epoch it publishes, before the
// epoch becomes visible. Open recovers by loading the newest valid
// checkpoint and replaying the generation's WAL tail through the ordinary
// mutation paths, so a restarted process lands on the exact pre-crash epoch
// with the same workload — and, because solves are workload-determined,
// bit-identical solve results.
//
// A generation is one dataset lifetime. Attaching a fresh System (a
// server-side /v1/load) starts generation g+1: its checkpoint is written
// first, then its empty log, and only then are generation g's files
// deleted — at every instant the directory holds at least one complete,
// recoverable generation. Within a generation, Checkpoint rotates the log
// to a new segment while the writer lock is held (so no transaction spans
// the rotation and every record in retired segments is already published),
// writes the snapshot atomically, and prunes the segments the snapshot made
// obsolete.
//
// Recovery invariants, enforced here and in internal/wal:
//
//   - Only the final segment of the recovered generation may carry a torn
//     or CRC-failing tail; it is truncated, logged, and counted. Damage in
//     an earlier segment is a fatal error, not a silent skip.
//   - A transaction missing its End marker at the tail is rolled back
//     whole — recovery never applies half a batch.
//   - Epochs advance by exactly one per replayed transaction past the
//     checkpoint's epoch; a gap aborts recovery.

// FsyncPolicy selects when WAL appends reach stable storage; see the
// wal.Policy constants re-exported below and the -fsync server flag.
type FsyncPolicy = wal.Policy

const (
	// FsyncAlways makes every acknowledged write durable before it returns.
	FsyncAlways = wal.SyncAlways
	// FsyncInterval group-commits on a background ticker: the write path
	// runs at in-memory speed and a crash loses at most the last interval.
	FsyncInterval = wal.SyncInterval
	// FsyncOff leaves flushing to the OS: safe against process crashes (the
	// page cache survives kill -9), unsafe against power loss.
	FsyncOff = wal.SyncOff
)

// ParseFsyncPolicy maps "always" / "interval" / "off" to a FsyncPolicy.
var ParseFsyncPolicy = wal.ParsePolicy

// OpenOptions configures Open and the Store it returns.
type OpenOptions struct {
	// Fsync is the WAL durability policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval ticker period; 0 means 100ms.
	FsyncInterval time.Duration
	// Logger receives recovery and checkpoint WARN/INFO lines; nil means
	// slog.Default().
	Logger *slog.Logger

	// checkpointLoaded, when set (tests only), observes the System right
	// after its checkpoint is loaded and before WAL replay begins — the
	// window the recovery-concurrency tests probe.
	checkpointLoaded func(*System)
}

func (o OpenOptions) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

func (o OpenOptions) walOptions() wal.Options {
	return wal.Options{Policy: o.Fsync, Interval: o.FsyncInterval, Logger: o.Logger}
}

// RecoveryStats summarises what Open found and did. The JSON shape is the
// /v1/stats "recovery" payload.
type RecoveryStats struct {
	// Recovered reports whether a dataset was found; false for a fresh
	// (empty) data directory.
	Recovered bool `json:"recovered"`
	// Generation is the recovered dataset generation.
	Generation uint64 `json:"generation"`
	// CheckpointEpoch is the epoch the loaded snapshot carried.
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	// Epoch is the final epoch after WAL replay — the exact pre-crash epoch.
	Epoch uint64 `json:"epoch"`
	// ReplayedTxns / ReplayedRecords count the WAL tail applied on top of
	// the checkpoint.
	ReplayedTxns    int `json:"replayed_txns"`
	ReplayedRecords int `json:"replayed_records"`
	// TruncatedRecords / TruncatedBytes / RolledBackTxns count tail damage
	// recovery repaired (torn writes from the crash, uncommitted batches).
	TruncatedRecords int   `json:"truncated_records"`
	TruncatedBytes   int64 `json:"truncated_bytes"`
	RolledBackTxns   int   `json:"rolled_back_txns"`
	// Duration is wall time spent in Open.
	Duration time.Duration `json:"duration_ns"`
}

var (
	mRecoveries = obs.Default.Counter("iq_recovery_total",
		"Recovery passes completed (one per Open of a non-empty data directory).")
	mRecoverySeconds = obs.Default.Histogram("iq_recovery_duration_seconds",
		"Wall time of checkpoint load + WAL replay.",
		[]float64{0.001, 0.01, 0.1, 1, 10})
	mCheckpoints = obs.Default.Counter("iq_checkpoint_total",
		"Checkpoints written.")
	mCheckpointSeconds = obs.Default.Histogram("iq_checkpoint_duration_seconds",
		"Wall time of snapshot write + log truncation.",
		[]float64{0.001, 0.01, 0.1, 1, 10})
	// The three gauges below are refreshed on demand by
	// (*Store).DurabilityStatus — scrape-time state, not event deltas.
	mWALLiveBytes = obs.Default.Gauge("iq_wal_live_bytes",
		"Bytes in the active generation's WAL segments — replay work a crash right now would incur.")
	mWALSegments = obs.Default.Gauge("iq_wal_segments",
		"WAL segment files in the active generation.")
	mCheckpointAge = obs.Default.Gauge("iq_checkpoint_age_seconds",
		"Seconds since the newest durable checkpoint was written (0 when no Store is attached).")
)

// Store is a System's durable home: it owns the data directory, the active
// WAL generation, and the checkpoint cycle. Obtain one with Open, attach a
// freshly built System with Attach (or use the one Open recovered), and
// Close it on shutdown. Store methods are safe for concurrent use with each
// other and with System reads/writes.
//
// Lock ordering: a System's writer mutex is always taken before the Store's
// — logTxn runs under sys.mu and briefly takes smu to read the active log;
// nothing acquires sys.mu while holding smu.
type Store struct {
	dir  string
	opts OpenOptions

	// attachMu serialises Attach calls end to end: the generation number is
	// reserved, its checkpoint written, and its log created as one unit, so
	// two concurrent attachers can never race to the same checkpoint path.
	// Taken before smu / the System's writer mutex, never while holding them.
	attachMu sync.Mutex

	smu              sync.Mutex // guards the fields below
	system           *System
	log              *wal.Log
	gen              uint64
	lastCheckpoint   uint64    // epoch of the newest durable checkpoint
	lastCheckpointAt time.Time // when that checkpoint became durable
	closed           bool

	stats RecoveryStats // written once by Open
}

func checkpointName(gen uint64) string {
	return fmt.Sprintf("checkpoint-%016x.snap", gen)
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	var g uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".snap"),
		"%016x", &g); err != nil {
		return 0, false
	}
	return g, true
}

// Open recovers (or initialises) the data directory and returns its Store.
// An empty directory yields a Store with no System — attach one with Attach
// once a dataset exists. See OpenCtx for recovery semantics.
func Open(dir string, opts OpenOptions) (*Store, error) {
	return OpenCtx(context.Background(), dir, opts)
}

// OpenCtx is Open under a context: recovery records "recover" spans into the
// context's trace, and the replayed mutations observe ctx like any other
// write — cancelling it aborts recovery cleanly.
//
// Recovery picks the highest generation whose checkpoint loads, replays that
// generation's WAL tail on top of it, and deletes every other generation's
// files (older, superseded ones and newer ones a crash left incomplete). A
// checkpoint is passed over only when it is provably corrupt
// (ErrCorruptSnapshot); a transient read error aborts recovery rather than
// falling back and pruning newer acknowledged data. WAL segments with no
// checkpoint at all are an error: they would mean acknowledged history with
// no base state to replay it onto.
func OpenCtx(ctx context.Context, dir string, opts OpenOptions) (*Store, error) {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "recover")
	defer span.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log := opts.logger()
	st := &Store{dir: dir, opts: opts}

	removeStaleTmp(dir)
	cpGens, err := listCheckpointGens(dir)
	if err != nil {
		return nil, err
	}
	walGens, err := wal.Generations(dir)
	if err != nil {
		return nil, err
	}
	if len(cpGens) == 0 {
		if len(walGens) > 0 {
			return nil, fmt.Errorf("iq: data dir %s has WAL generation %d but no checkpoint; refusing to guess a base state",
				dir, walGens[len(walGens)-1])
		}
		st.stats.Duration = time.Since(start)
		return st, nil // fresh directory
	}

	// Highest generation with a loadable checkpoint wins; a provably corrupt
	// newer checkpoint (which the atomic writer should make impossible, but
	// disks happen) falls back to the one before it. Only corruption may
	// trigger the fallback: once a generation is recovered, every other one
	// is pruned, so skipping a checkpoint over a transient I/O error
	// (EIO, permissions) would destroy acknowledged data a retry could have
	// read — those errors abort recovery instead.
	var sys *System
	var gen uint64
	for i := len(cpGens) - 1; i >= 0; i-- {
		g := cpGens[i]
		path := filepath.Join(dir, checkpointName(g))
		loaded, err := LoadFile(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				return nil, fmt.Errorf("iq: reading checkpoint %s: %w (not provably corrupt; refusing to fall back and prune newer data)", path, err)
			}
			log.Warn("iq: skipping corrupt checkpoint", "path", path, "err", err)
			continue
		}
		sys, gen = loaded, g
		break
	}
	if sys == nil {
		return nil, fmt.Errorf("iq: data dir %s: no checkpoint is readable", dir)
	}
	st.stats.Recovered = true
	st.stats.Generation = gen
	st.stats.CheckpointEpoch = sys.Epoch()
	if opts.checkpointLoaded != nil {
		opts.checkpointLoaded(sys)
	}

	// Replay the generation's tail through the ordinary mutation paths. The
	// System has no durability sink yet, so nothing is re-logged, and every
	// replayed transaction publishes atomically — a concurrent reader sees
	// the checkpoint state or a fully applied prefix, never half an epoch.
	rctx, rspan := obs.StartSpan(ctx, "recover/replay")
	rstats, err := wal.Replay(dir, gen, sys.Epoch(), opts.walOptions(), func(t wal.Txn) error {
		if err := applyLoggedTxn(rctx, sys, t); err != nil {
			return fmt.Errorf("iq: replaying epoch %d: %w", t.Epoch, err)
		}
		if got := sys.Epoch(); got != t.Epoch {
			return fmt.Errorf("iq: replay desync: applied transaction %d but system is at epoch %d", t.Epoch, got)
		}
		return nil
	})
	rspan.End()
	if err != nil {
		return nil, err
	}
	st.stats.ReplayedTxns = rstats.Txns
	st.stats.ReplayedRecords = rstats.Records
	st.stats.TruncatedRecords = rstats.TruncatedRecords
	st.stats.TruncatedBytes = rstats.TruncatedBytes
	st.stats.RolledBackTxns = rstats.RolledBackTxns
	st.stats.Epoch = sys.Epoch()

	// Resume the log where replay (and its tail truncation) left it, then
	// attach: from here every mutation hits the WAL before it publishes.
	wlog, err := wal.OpenForAppend(dir, gen, opts.walOptions())
	if err != nil {
		return nil, err
	}
	st.system, st.log, st.gen = sys, wlog, gen
	st.lastCheckpoint = st.stats.CheckpointEpoch
	// The recovered checkpoint's age predates this process: date it by the
	// file's mtime, falling back to now if the stat fails.
	st.lastCheckpointAt = time.Now()
	if fi, err := os.Stat(filepath.Join(dir, checkpointName(gen))); err == nil {
		st.lastCheckpointAt = fi.ModTime()
	}
	sys.mu.Lock()
	sys.dur = st
	sys.mu.Unlock()

	// Every other generation is either superseded or an incomplete crash
	// leftover; both are safe to delete now that gen is attached and durable.
	pruneOtherGenerations(dir, gen, cpGens, walGens, log)

	st.stats.Duration = time.Since(start)
	span.SetAttr("generation", gen)
	span.SetAttr("checkpoint_epoch", st.stats.CheckpointEpoch)
	span.SetAttr("epoch", st.stats.Epoch)
	span.SetAttr("replayed_txns", rstats.Txns)
	mRecoveries.Inc()
	mRecoverySeconds.Observe(st.stats.Duration.Seconds())
	log.Info("iq: recovered",
		"dir", dir, "generation", gen,
		"checkpoint_epoch", st.stats.CheckpointEpoch, "epoch", st.stats.Epoch,
		"replayed_txns", rstats.Txns,
		"truncated_records", rstats.TruncatedRecords,
		"rolled_back_txns", rstats.RolledBackTxns,
		"duration", st.stats.Duration)
	return st, nil
}

// System returns the recovered (or attached) System, nil if the Store has
// no dataset yet.
func (s *Store) System() *System {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.system
}

// RecoveryStats reports what Open found and did.
func (s *Store) RecoveryStats() RecoveryStats { return s.stats }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the active dataset generation (0 when none).
func (s *Store) Generation() uint64 {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.gen
}

// Attach makes sys the Store's System under a fresh generation: the new
// generation's checkpoint is written first, then its empty log, and only
// then are the previous generation's files removed — a crash at any point
// leaves a recoverable directory (the old dataset until the new checkpoint
// is durable, the new one after). Any previously attached System is
// detached; its writes fail against the closed old log. sys must not yet be
// receiving writes: callers attach first, publish the System second.
func (s *Store) Attach(ctx context.Context, sys *System) error {
	_, span := obs.StartSpan(ctx, "checkpoint/attach")
	defer span.End()
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	s.smu.Lock()
	if s.closed {
		s.smu.Unlock()
		return fmt.Errorf("iq: store is closed")
	}
	old, oldLog, oldGen := s.system, s.log, s.gen
	s.smu.Unlock()

	gen := oldGen + 1
	span.SetAttr("generation", gen)
	if err := wal.FireCrashHook("attach:checkpoint"); err != nil {
		return err
	}
	if err := sys.SaveFile(filepath.Join(s.dir, checkpointName(gen))); err != nil {
		return err
	}
	if err := wal.FireCrashHook("attach:wal"); err != nil {
		return err
	}
	wlog, err := wal.Create(s.dir, gen, s.opts.walOptions())
	if err != nil {
		return err
	}

	// Detach the old System and retire its log, swap the Store's wiring to
	// the new generation, and only then give sys its durability sink — so
	// logTxn can never observe a half-swapped Store.
	if old != nil {
		old.mu.Lock()
		old.dur = detachedSink{}
		old.mu.Unlock()
	}
	if oldLog != nil {
		oldLog.Close()
	}
	sys.mu.Lock()
	epoch := sys.cur.Load().epoch
	sys.mu.Unlock()
	s.smu.Lock()
	s.system, s.log, s.gen = sys, wlog, gen
	s.lastCheckpoint = epoch
	s.lastCheckpointAt = time.Now()
	s.smu.Unlock()
	sys.mu.Lock()
	sys.dur = s
	sys.mu.Unlock()

	if err := wal.FireCrashHook("attach:prune"); err != nil {
		return err
	}
	if oldGen != 0 {
		removeGenerationFiles(s.dir, oldGen, s.opts.logger())
	}
	return nil
}

// detachedSink replaces a superseded System's sink: a detached System must
// fail writes loudly, not silently fall back to in-memory mutation.
type detachedSink struct{}

func (detachedSink) logTxn(context.Context, uint64, []Mutation) error {
	return fmt.Errorf("iq: System was detached from its Store; writes are no longer durable")
}

// logTxn is the durabilitySink contract: called by mutateCtx under the
// System's writer lock, after the mutation succeeded and before its epoch
// publishes. A single mutation is one standalone record; a batch is framed
// Begin / mutations / End so recovery can roll back an incomplete one.
func (s *Store) logTxn(ctx context.Context, epoch uint64, muts []Mutation) error {
	_, span := obs.StartSpan(ctx, "wal/append")
	defer span.End()
	s.smu.Lock()
	wlog, closed := s.log, s.closed
	s.smu.Unlock()
	if wlog == nil || closed {
		return fmt.Errorf("iq: store has no active log")
	}
	recs := make([]wal.Record, 0, len(muts)+2)
	batch := len(muts) > 1
	if batch {
		count := []byte{byte(len(muts) >> 24), byte(len(muts) >> 16), byte(len(muts) >> 8), byte(len(muts))}
		recs = append(recs, wal.Record{Epoch: epoch, Kind: wal.KindBegin, Body: count})
	}
	for i := range muts {
		body, err := encodeMutation(muts[i])
		if err != nil {
			return err
		}
		recs = append(recs, wal.Record{Epoch: epoch, Kind: wal.KindMutation, Body: body})
	}
	if batch {
		recs = append(recs, wal.Record{Epoch: epoch, Kind: wal.KindEnd})
	}
	span.SetAttr("epoch", epoch)
	span.SetAttr("records", len(recs))
	return wlog.Append(recs)
}

// Checkpoint writes a snapshot of the current epoch and truncates the WAL
// prefix it covers; see CheckpointCtx.
func (s *Store) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

// CheckpointCtx rotates the log under the writer lock (so retired segments
// hold only published transactions with epochs ≤ the snapshot's), writes
// the snapshot atomically, and prunes the retired segments. Writers are
// blocked only for the rotation — the snapshot serialises against a pinned
// immutable epoch while mutations continue. A no-op if nothing was written
// since the last checkpoint.
func (s *Store) CheckpointCtx(ctx context.Context) error {
	_, span := obs.StartSpan(ctx, "checkpoint")
	defer span.End()
	s.smu.Lock()
	sys := s.system
	s.smu.Unlock()
	if sys == nil {
		return nil
	}
	start := time.Now()

	// Rotation runs under the writer lock: no mutation is in flight, so
	// every record in the retiring segment belongs to a published epoch ≤
	// the epoch pinned here.
	sys.mu.Lock()
	s.smu.Lock()
	if s.closed || s.log == nil || s.system != sys {
		s.smu.Unlock()
		sys.mu.Unlock()
		return fmt.Errorf("iq: store is closed or re-attached")
	}
	wlog, gen := s.log, s.gen
	if s.lastCheckpoint == sys.cur.Load().epoch {
		s.smu.Unlock()
		sys.mu.Unlock()
		return nil
	}
	s.smu.Unlock()
	st := sys.cur.Load()
	err := wlog.Rotate()
	keep := wlog.ActiveSegment()
	sys.mu.Unlock()
	if err != nil {
		return err
	}

	if err := wal.FireCrashHook("checkpoint:snapshot"); err != nil {
		return err
	}
	path := filepath.Join(s.dir, checkpointName(gen))
	if err := writeFileAtomic(path, func(w io.Writer) error { return saveState(st, w) }); err != nil {
		return err
	}
	if err := wal.FireCrashHook("checkpoint:prune"); err != nil {
		return err
	}
	if err := wal.RemoveSegmentsBelow(s.dir, gen, keep); err != nil {
		// The snapshot is durable; stale segments are garbage, not danger —
		// recovery skips their epochs. Log and carry on.
		s.opts.logger().Warn("iq: checkpoint could not prune old segments", "err", err)
	}
	s.smu.Lock()
	if s.lastCheckpoint < st.epoch {
		s.lastCheckpoint = st.epoch
		s.lastCheckpointAt = time.Now()
	}
	s.smu.Unlock()
	span.SetAttr("epoch", st.epoch)
	span.SetAttr("pruned_below", keep)
	mCheckpoints.Inc()
	mCheckpointSeconds.Observe(time.Since(start).Seconds())
	s.opts.logger().Info("iq: checkpoint written", "generation", gen, "epoch", st.epoch)
	return nil
}

// DurabilityStatus is a point-in-time view of the Store's on-disk footprint,
// refreshed on demand (at /metrics scrape or /v1/stats) rather than tracked
// by deltas: listing a handful of segment files is cheap and can never drift
// from the directory's actual contents.
type DurabilityStatus struct {
	// Generation is the active dataset generation.
	Generation uint64 `json:"generation"`
	// WALSegments / WALLiveBytes describe the active generation's log: how
	// many segment files exist and how many bytes a recovery would replay.
	WALSegments  int   `json:"wal_segments"`
	WALLiveBytes int64 `json:"wal_live_bytes"`
	// CheckpointEpoch is the epoch of the newest durable checkpoint;
	// CheckpointAgeSeconds is how long ago it became durable.
	CheckpointEpoch      uint64  `json:"checkpoint_epoch"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
}

// DurabilityStatus lists the active generation's WAL segments, sums their
// sizes, and refreshes the iq_wal_live_bytes / iq_wal_segments /
// iq_checkpoint_age_seconds gauges from what it finds. Returns the zero
// status when the Store has no attached dataset yet.
func (s *Store) DurabilityStatus() DurabilityStatus {
	s.smu.Lock()
	gen, cpEpoch, cpAt := s.gen, s.lastCheckpoint, s.lastCheckpointAt
	s.smu.Unlock()
	var ds DurabilityStatus
	if gen == 0 {
		return ds
	}
	ds.Generation = gen
	ds.CheckpointEpoch = cpEpoch
	if !cpAt.IsZero() {
		ds.CheckpointAgeSeconds = time.Since(cpAt).Seconds()
	}
	if refs, err := wal.ListSegments(s.dir, gen); err == nil {
		ds.WALSegments = len(refs)
		for _, ref := range refs {
			if fi, err := os.Stat(ref.Path); err == nil {
				ds.WALLiveBytes += fi.Size()
			}
		}
	}
	mWALLiveBytes.Set(ds.WALLiveBytes)
	mWALSegments.Set(int64(ds.WALSegments))
	mCheckpointAge.Set(int64(ds.CheckpointAgeSeconds))
	return ds
}

// Sync forces the WAL to stable storage regardless of fsync policy — a
// graceful-shutdown barrier for FsyncInterval / FsyncOff deployments.
func (s *Store) Sync() error {
	s.smu.Lock()
	wlog := s.log
	s.smu.Unlock()
	if wlog == nil {
		return nil
	}
	return wlog.Sync()
}

// Close fsyncs and closes the WAL. The attached System stays readable;
// further writes fail rather than silently losing durability.
func (s *Store) Close() error {
	s.smu.Lock()
	s.closed = true
	wlog := s.log
	s.smu.Unlock()
	if wlog == nil {
		return nil
	}
	return wlog.Close()
}

// abort closes the WAL without the final fsync — the crash-test stand-in
// for kill -9 (see wal.Log.Abort).
func (s *Store) abort() {
	s.smu.Lock()
	s.closed = true
	wlog := s.log
	s.smu.Unlock()
	if wlog != nil {
		wlog.Abort()
	}
}

// encodeMutation / decodeMutation gob-frame one Mutation per WAL record.
// Each record is its own gob stream: a few descriptor bytes of overhead per
// record buys self-contained records a dump tool can decode in isolation.
func encodeMutation(m Mutation) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("iq: encoding mutation for WAL: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeMutation(body []byte) (m Mutation, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("iq: decoding WAL mutation: panic: %v", p)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
		return Mutation{}, fmt.Errorf("iq: decoding WAL mutation: %w", err)
	}
	return m, nil
}

// applyLoggedTxn re-applies one committed transaction through the same code
// paths that produced it, so the replayed state is identical to the
// pre-crash state.
func applyLoggedTxn(ctx context.Context, sys *System, t wal.Txn) error {
	muts := make([]Mutation, len(t.Mutations))
	for i, body := range t.Mutations {
		m, err := decodeMutation(body)
		if err != nil {
			return err
		}
		muts[i] = m
	}
	if t.Batch {
		_, err := sys.ApplyBatchCtx(ctx, muts)
		return err
	}
	if len(muts) != 1 {
		return fmt.Errorf("iq: standalone WAL transaction carries %d mutations", len(muts))
	}
	m := muts[0]
	switch {
	case m.Commit != nil:
		return sys.CommitCtx(ctx, m.Commit.Target, m.Commit.Strategy)
	case m.AddObject != nil:
		_, err := sys.AddObjectCtx(ctx, m.AddObject.Attrs)
		return err
	case m.RemoveObject != nil:
		return sys.RemoveObjectCtx(ctx, m.RemoveObject.ID)
	case m.AddQuery != nil:
		_, err := sys.AddQueryCtx(ctx, m.AddQuery.Query)
		return err
	case m.RemoveQuery != nil:
		return sys.RemoveQueryCtx(ctx, m.RemoveQuery.Index)
	default:
		return fmt.Errorf("iq: WAL mutation record sets no operation")
	}
}

// DecodeWALMutation renders one WAL record body as an operator-readable op
// description — the iqtool -wal-dump payload decoder.
func DecodeWALMutation(body []byte) string {
	m, err := decodeMutation(body)
	if err != nil {
		return fmt.Sprintf("undecodable (%v)", err)
	}
	switch {
	case m.Commit != nil:
		return fmt.Sprintf("commit target=%d dims=%d", m.Commit.Target, len(m.Commit.Strategy))
	case m.AddObject != nil:
		return fmt.Sprintf("add-object dims=%d", len(m.AddObject.Attrs))
	case m.RemoveObject != nil:
		return fmt.Sprintf("remove-object id=%d", m.RemoveObject.ID)
	case m.AddQuery != nil:
		return fmt.Sprintf("add-query id=%d k=%d", m.AddQuery.Query.ID, m.AddQuery.Query.K)
	case m.RemoveQuery != nil:
		return fmt.Sprintf("remove-query index=%d", m.RemoveQuery.Index)
	default:
		return "empty mutation"
	}
}

func listCheckpointGens(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if g, ok := parseCheckpointName(e.Name()); ok {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// removeStaleTmp clears writeFileAtomic leftovers from a crash mid-save.
func removeStaleTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

func removeGenerationFiles(dir string, gen uint64, log *slog.Logger) {
	if err := wal.RemoveGeneration(dir, gen); err != nil {
		log.Warn("iq: could not remove old WAL generation", "generation", gen, "err", err)
	}
	if err := os.Remove(filepath.Join(dir, checkpointName(gen))); err != nil && !os.IsNotExist(err) {
		log.Warn("iq: could not remove old checkpoint", "generation", gen, "err", err)
	}
}

// pruneOtherGenerations deletes every generation except keep: older ones are
// superseded, newer ones are incomplete crash leftovers whose checkpoint
// never became durable.
func pruneOtherGenerations(dir string, keep uint64, cpGens, walGens []uint64, log *slog.Logger) {
	seen := map[uint64]bool{keep: true}
	for _, g := range append(append([]uint64{}, cpGens...), walGens...) {
		if seen[g] {
			continue
		}
		seen[g] = true
		log.Warn("iq: removing non-recovered generation", "generation", g, "kept", keep)
		removeGenerationFiles(dir, g, log)
	}
}
