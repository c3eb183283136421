package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iq"
	"iq/internal/obs"
)

// appConfig is the full operational envelope, one field per flag.
type appConfig struct {
	addr           string
	requestTimeout time.Duration
	drainTimeout   time.Duration
	maxInflight    int
	maxBodyBytes   int64
	maxBatchItems  int
	logFormat      string
	logLevel       string
	pprof          bool
	debugTraces    bool
	traceAll       bool
	slowSolve      time.Duration
	dur            durabilityConfig
	version        bool
}

// newLogger builds the process root logger: structured slog (JSON by
// default, text for humans) wrapped in obs.CtxHandler so every line emitted
// under a request context automatically carries its request_id.
func newLogger(cfg appConfig) (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch cfg.logFormat {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		return nil, errors.New("-log-format must be json or text")
	}
	return slog.New(obs.NewCtxHandler(h)), nil
}

// newHTTPServer assembles the hardened http.Server around the API handler.
// The write timeout must outlast the longest admitted solve, so it is the
// request timeout plus slack for serialisation; with no request timeout it
// is unbounded (the operator opted out of deadlines entirely).
func newHTTPServer(cfg appConfig, logger *slog.Logger) (*http.Server, *server) {
	api := newServer(logger, serverConfig{
		requestTimeout: cfg.requestTimeout,
		maxInflight:    cfg.maxInflight,
		maxBodyBytes:   cfg.maxBodyBytes,
		maxBatchItems:  cfg.maxBatchItems,
		enablePprof:    cfg.pprof,
		debugTraces:    cfg.debugTraces,
		traceAll:       cfg.traceAll,
		slowSolve:      cfg.slowSolve,
	})
	var writeTimeout time.Duration
	if cfg.requestTimeout > 0 {
		writeTimeout = cfg.requestTimeout + 10*time.Second
	}
	return &http.Server{
		Addr:              cfg.addr,
		Handler:           api.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}, api
}

// run serves ln until ctx is cancelled (SIGINT/SIGTERM in production), then
// shuts down gracefully: the listener closes immediately, in-flight requests
// get up to drain to finish, and only past that deadline are their
// connections severed. Returns nil on a clean drain.
func run(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed outright; nothing to drain
	case <-ctx.Done():
	}
	logger.Info("shutdown: draining in-flight requests", "drain_timeout", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Error("shutdown: drain deadline exceeded, severing connections", "err", err)
		srv.Close()
		return err
	}
	logger.Info("shutdown: drained cleanly")
	return nil
}

func main() {
	defaults := defaultConfig()
	var cfg appConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", defaults.requestTimeout,
		"per-request solve deadline; a request's timeout_ms may tighten but never exceed it (0 disables)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second,
		"how long graceful shutdown waits for in-flight requests before severing them")
	flag.IntVar(&cfg.maxInflight, "max-inflight", defaults.maxInflight,
		"max concurrently admitted solver requests; excess get 429 (0 = unlimited)")
	flag.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", defaults.maxBodyBytes,
		"max request body size in bytes; larger bodies get 413 (0 = unlimited)")
	flag.IntVar(&cfg.maxBatchItems, "max-batch", defaults.maxBatchItems,
		"max solve items per /v1/solve/batch request; larger batches get 400 (0 = unlimited)")
	flag.StringVar(&cfg.logFormat, "log-format", "json", "log output format: json or text")
	flag.StringVar(&cfg.logLevel, "log-level", "info",
		"minimum log level: debug, info, warn, or error (debug includes per-solve engine lines)")
	flag.BoolVar(&cfg.pprof, "pprof", false,
		"mount net/http/pprof under /debug/pprof/ (trusted networks only)")
	flag.BoolVar(&cfg.debugTraces, "debug-traces", defaults.debugTraces,
		"enable the flight recorder at /debug/traces (requests opt in with X-IQ-Trace: 1 or trace=1)")
	flag.BoolVar(&cfg.traceAll, "trace-all", false,
		"capture a trace of every /v1 request without per-request opt-in (debugging sessions only)")
	flag.DurationVar(&cfg.slowSolve, "slow-solve-threshold", 0,
		"log completed solves slower than this at WARN with their work profile (0 disables)")
	flag.StringVar(&cfg.dur.dataDir, "data-dir", "",
		"directory for the mutation WAL and checkpoints; empty runs in-memory (mutations lost on exit)")
	flag.StringVar(&cfg.dur.fsync, "fsync", "always",
		"WAL fsync policy: always (fsync before every ack), interval (group commit on -fsync-interval), off (OS page cache only)")
	flag.DurationVar(&cfg.dur.fsyncInterval, "fsync-interval", 50*time.Millisecond,
		"group-commit window for -fsync interval: acknowledged writes may be lost within at most this window on power failure")
	flag.DurationVar(&cfg.dur.checkpointEvery, "checkpoint-every", 5*time.Minute,
		"background checkpoint cadence bounding WAL replay time after a crash (0 disables; only with -data-dir)")
	flag.BoolVar(&cfg.version, "version", false, "print version and exit")
	flag.Parse()

	if cfg.version {
		fmt.Printf("iqserver %s (%s)\n", iq.Version, iq.GoVersion())
		return
	}
	logger, err := newLogger(cfg)
	if err != nil {
		slog.Error("invalid logging flags", "err", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		logger.Error("listen failed", "addr", cfg.addr, "err", err)
		os.Exit(1)
	}
	srv, api := newHTTPServer(cfg, logger)
	if cfg.dur.dataDir != "" {
		// Recovery runs in the background: the listener is up (liveness
		// probes answer) while /readyz reports 503 until replay completes.
		api.startRecovery(ctx, cfg.dur, logger, osExit)
	}
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"request_timeout", cfg.requestTimeout,
		"max_inflight", cfg.maxInflight,
		"max_body_bytes", cfg.maxBodyBytes,
		"pprof", cfg.pprof,
		"data_dir", cfg.dur.dataDir,
	)
	err = run(ctx, srv, ln, cfg.drainTimeout, logger)
	// In-flight mutations have been acknowledged; the store's final fsync
	// on close makes every ack durable regardless of -fsync policy.
	api.closeStore(logger)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
}
