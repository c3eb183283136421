package history

// The sampler is the bridge from the live registry to the ring: a background
// ticker gathers the registry, diffs it against the previous gather, and
// appends the interval aggregate. Nothing here runs on a solve or request
// path — the solvers' instrumentation cost is unchanged whether history is
// on, off, or absent — and a tick's work is one registry gather (a mutex-held
// copy of a few hundred atomics) plus one journal append per interval.

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"iq/internal/obs"
)

// Config configures a Sampler. Registry and Interval are required.
type Config struct {
	Registry  *obs.Registry
	Interval  time.Duration
	Retention time.Duration
	// MaxSamples caps the ring independently of retention (0 derives it from
	// Retention/Interval plus slack, capped at 20000).
	MaxSamples int
	// Path locates the journal file; "" keeps history in memory only.
	Path string
	// MaxJournalBytes triggers compaction (0 = DefaultMaxJournalBytes).
	MaxJournalBytes int64
	// OnSample, when set, receives every appended sample in order (the SLO
	// evaluator hooks in here). Called on the sampler goroutine.
	OnSample func(Sample)
	// Log receives journal I/O warnings; nil uses slog.Default().
	Log *slog.Logger
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

// prevSeries is one series' cumulative state at the previous gather.
type prevSeries struct {
	kind    string
	value   float64
	count   int64
	sum     float64
	buckets []int64 // per-bucket counts with overflow appended last
	// emitted records whether a gauge reading has appeared in a sample this
	// process run: every gauge is published once after a (re)baseline, then
	// only on change, so constant gauges still show up in history.
	emitted bool
}

// Sampler owns the ring, the journal, and the delta state. Start launches
// the ticker; TickNow drives it synchronously (tests, and the final flush in
// Close).
type Sampler struct {
	cfg  Config
	ring *Ring

	mu     sync.Mutex // serialises ticks, journal I/O, and close
	j      *journal
	prev   map[string]prevSeries
	prevAt time.Time
	closed bool

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}

	mSamples *obs.Counter
	mSeries  *obs.Gauge
	mBytes   *obs.Gauge
	mCompact *obs.Counter
}

// New builds a Sampler, recovering any journal at cfg.Path into the ring
// (the merge that makes history survive restarts). The recovered samples are
// visible through Ring immediately; Start begins appending new ones.
func New(cfg Config) (*Sampler, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("history: Config.Registry is required")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("history: Config.Interval must be positive (got %v)", cfg.Interval)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	max := cfg.MaxSamples
	if max <= 0 {
		if cfg.Retention > 0 {
			max = int(cfg.Retention/cfg.Interval) + 8
		} else {
			max = 4096
		}
		if max > 20000 {
			max = 20000
		}
	}
	s := &Sampler{
		cfg:  cfg,
		ring: NewRing(cfg.Retention, max),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		// The sampler observes itself through the same registry it samples.
		mSamples: cfg.Registry.Counter("iq_history_samples_total",
			"History intervals recorded since process start."),
		mSeries: cfg.Registry.Gauge("iq_history_series",
			"Series with activity in the most recent history interval."),
		mBytes: cfg.Registry.Gauge("iq_history_journal_bytes",
			"Size of the on-disk history journal."),
		mCompact: cfg.Registry.Counter("iq_history_journal_compactions_total",
			"History journal compactions (size-triggered and on close)."),
	}
	if cfg.Path != "" {
		j, recovered, err := openJournal(cfg.Path, cfg.MaxJournalBytes)
		if err != nil {
			return nil, err
		}
		s.j = j
		for _, sm := range recovered {
			s.ring.Append(sm) // out-of-order or duplicate lines drop here
		}
		s.mBytes.Set(j.size)
	}
	return s, nil
}

// Ring exposes the sample buffer (recovered plus live samples).
func (s *Sampler) Ring() *Ring { return s.ring }

// Start baselines the registry and launches the sampling ticker. Safe to
// call once; Close stops it.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		s.mu.Lock()
		s.baselineLocked()
		s.mu.Unlock()
		go s.loop()
	})
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.TickNow()
		}
	}
}

// baselineLocked records current cumulative values without emitting a
// sample; the next tick's deltas are measured from here.
func (s *Sampler) baselineLocked() {
	s.prev = gatherMap(s.cfg.Registry)
	s.prevAt = s.cfg.Now()
}

// TickNow takes one sample immediately (the ticker calls this every
// interval; tests and the Close flush call it directly).
func (s *Sampler) TickNow() {
	var sample Sample
	emitted := false
	s.mu.Lock()
	if !s.closed {
		sample, emitted = s.tickLocked()
	}
	s.mu.Unlock()
	if emitted && s.cfg.OnSample != nil {
		s.cfg.OnSample(sample)
	}
}

func (s *Sampler) tickLocked() (Sample, bool) {
	now := s.cfg.Now()
	if s.prev == nil {
		s.baselineLocked()
		return Sample{}, false
	}
	dt := now.Sub(s.prevAt).Seconds()
	if dt <= 0 {
		return Sample{}, false
	}
	cur := s.cfg.Registry.Gather()
	curMap := make(map[string]prevSeries, len(s.prev))
	sample := Sample{UnixMs: now.UnixMilli(), Dur: dt}
	for _, f := range cur {
		for _, sd := range f.Series {
			key := f.Name + sd.Labels
			p, seen := s.prev[key]
			switch f.Kind {
			case "counter":
				curMap[key] = prevSeries{kind: f.Kind, value: sd.Value}
				if d := sd.Value - p.value; d > 0 {
					sample.Points = append(sample.Points, Point{
						Name: f.Name, Labels: sd.Labels, Kind: f.Kind,
						Delta: d, Rate: d / dt,
					})
				}
			case "gauge":
				curMap[key] = prevSeries{kind: f.Kind, value: sd.Value, emitted: true}
				if !seen || !p.emitted || sd.Value != p.value {
					sample.Points = append(sample.Points, Point{
						Name: f.Name, Labels: sd.Labels, Kind: f.Kind,
						Value: sd.Value,
					})
				}
			case "histogram":
				buckets := append(append([]int64(nil), sd.Counts...), sd.Overflow)
				curMap[key] = prevSeries{kind: f.Kind, count: sd.Count, sum: sd.Sum, buckets: buckets}
				cd := sd.Count - p.count
				if cd <= 0 || len(p.buckets) != 0 && len(p.buckets) != len(buckets) {
					continue
				}
				deltas := make([]int64, len(buckets))
				for i := range buckets {
					deltas[i] = buckets[i]
					if i < len(p.buckets) {
						deltas[i] -= p.buckets[i]
					}
					if deltas[i] < 0 {
						deltas[i] = 0
					}
				}
				sample.Points = append(sample.Points, Point{
					Name: f.Name, Labels: sd.Labels, Kind: f.Kind,
					Count: cd, Sum: sd.Sum - p.sum,
					Uppers: sd.Uppers, Buckets: deltas,
					P50: Quantile(0.50, sd.Uppers, deltas),
					P90: Quantile(0.90, sd.Uppers, deltas),
					P99: Quantile(0.99, sd.Uppers, deltas),
				})
			}
		}
	}
	s.prev, s.prevAt = curMap, now
	s.ring.Append(sample)
	s.persistLocked(sample)
	s.mSamples.Inc()
	s.mSeries.Set(int64(len(sample.Points)))
	return sample, true
}

func (s *Sampler) persistLocked(sample Sample) {
	if s.j == nil {
		return
	}
	if err := s.j.append(sample); err != nil {
		s.cfg.Log.Warn("history journal append failed", "path", s.cfg.Path, "err", err)
		return
	}
	if s.j.needsCompact() {
		s.compactLocked()
	}
	s.mBytes.Set(s.j.size)
}

func (s *Sampler) compactLocked() {
	if err := s.j.compact(s.ring.Samples(time.Time{})); err != nil {
		s.cfg.Log.Warn("history journal compaction failed", "path", s.cfg.Path, "err", err)
		return
	}
	s.mCompact.Inc()
	s.mBytes.Set(s.j.size)
}

// Compact rewrites the journal down to the ring's current content. The
// server's checkpoint loop calls this so the journal is freshly bounded
// whenever a checkpoint generation rotates.
func (s *Sampler) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.j == nil {
		return
	}
	s.compactLocked()
}

// Close takes a final sample (capturing activity since the last tick),
// compacts the journal, and releases it. The sampler is unusable afterwards.
func (s *Sampler) Close() error {
	s.startOnce.Do(func() { close(s.done) }) // never started: mark loop done
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
	s.TickNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.j == nil {
		return nil
	}
	s.compactLocked()
	return s.j.close()
}

// gatherMap flattens a registry gather into the per-series delta state.
func gatherMap(r *obs.Registry) map[string]prevSeries {
	out := map[string]prevSeries{}
	for _, f := range r.Gather() {
		for _, sd := range f.Series {
			key := f.Name + sd.Labels
			switch f.Kind {
			case "histogram":
				buckets := append(append([]int64(nil), sd.Counts...), sd.Overflow)
				out[key] = prevSeries{kind: f.Kind, count: sd.Count, sum: sd.Sum, buckets: buckets}
			default:
				out[key] = prevSeries{kind: f.Kind, value: sd.Value}
			}
		}
	}
	return out
}
