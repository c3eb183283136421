package main

import (
	"context"
	"log/slog"
	"os"
	"time"

	"iq"
	"iq/internal/obs"
)

// Durability wiring: with -data-dir the server persists every mutation to a
// write-ahead log and recovers the exact pre-crash epoch on restart.
//
// Boot sequence: the HTTP listener comes up immediately, but /readyz answers
// 503 "recovering" until WAL replay finishes — load balancers keep traffic
// away from a half-recovered store without the process being invisible to
// liveness probes. Recovery runs in a background goroutine; when it
// completes the recovered System (if any) is published and readiness flips.
// A recovery failure is fatal: serving an empty store where data was
// expected silently loses the dataset, so the process exits instead.
//
// Steady state: /v1/load attaches the new dataset to the store (new WAL
// generation seeded by a checkpoint of the loaded state), every mutating
// endpoint's write is logged before it is acknowledged under the configured
// -fsync policy, and an optional background checkpointer (-checkpoint-every)
// bounds replay time by snapshotting and truncating the log.

// durabilityConfig is the operational envelope of the WAL, one field per
// flag. A zero dataDir disables durability entirely (PR 6 in-memory mode).
type durabilityConfig struct {
	dataDir         string
	fsync           string
	fsyncInterval   time.Duration
	checkpointEvery time.Duration
}

// startRecovery opens the data directory in the background and publishes the
// result. It returns immediately; until the goroutine finishes the server
// reports itself as recovering. exit is os.Exit in production, swappable in
// tests.
func (s *server) startRecovery(ctx context.Context, cfg durabilityConfig, logger *slog.Logger, exit func(int)) {
	pol, err := iq.ParseFsyncPolicy(cfg.fsync)
	if err != nil {
		logger.Error("invalid -fsync", "err", err)
		exit(1)
		return
	}
	s.recovering.Store(true)
	recoveringGauge := obs.Default.Gauge("iq_server_recovering",
		"1 while WAL replay is in progress, 0 once the server is ready.")
	recoveringGauge.Set(1)
	go func() {
		defer recoveringGauge.Set(0)
		store, err := iq.OpenCtx(ctx, cfg.dataDir, iq.OpenOptions{
			Fsync:         pol,
			FsyncInterval: cfg.fsyncInterval,
			Logger:        logger,
		})
		if err != nil {
			logger.Error("recovery failed; refusing to serve without the durable state",
				"data_dir", cfg.dataDir, "err", err)
			exit(1)
			return
		}
		s.mu.Lock()
		s.store = store
		if sys := store.System(); sys != nil {
			s.sys = sys
		}
		s.mu.Unlock()
		s.recovering.Store(false)
		st := store.RecoveryStats()
		logger.Info("durable store ready",
			"data_dir", cfg.dataDir,
			"recovered", st.Recovered,
			"epoch", st.Epoch,
			"replayed_txns", st.ReplayedTxns,
			"truncated_records", st.TruncatedRecords,
			"rolled_back_txns", st.RolledBackTxns,
			"duration", st.Duration,
		)
		if cfg.checkpointEvery > 0 {
			go s.checkpointLoop(ctx, cfg.checkpointEvery, logger)
		}
	}()
}

// checkpointLoop snapshots the store periodically so WAL replay after a
// crash is bounded by the checkpoint interval, not the process uptime. A
// failed checkpoint is logged and retried next tick — the WAL still holds
// everything, so durability is not at risk, only recovery time.
func (s *server) checkpointLoop(ctx context.Context, every time.Duration, logger *slog.Logger) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		store := s.durStore()
		if store == nil || s.system() == nil {
			continue
		}
		if err := store.CheckpointCtx(ctx); err != nil {
			logger.Warn("background checkpoint failed", "err", err)
		}
	}
}

// durStore returns the durable store, nil when running in-memory or while
// recovery is still in flight.
func (s *server) durStore() *iq.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

// closeStore flushes and closes the WAL on shutdown, making every
// acknowledged write durable regardless of fsync policy. Safe to call when
// durability is disabled or recovery never finished.
func (s *server) closeStore(logger *slog.Logger) {
	store := s.durStore()
	if store == nil {
		return
	}
	if err := store.Close(); err != nil {
		logger.Error("closing durable store", "err", err)
		return
	}
	logger.Info("durable store closed cleanly")
}

var osExit = os.Exit
