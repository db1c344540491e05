// Package pipeline wires the detection system together as a streaming
// dataflow: parse → enrich → detect → collect. It offers two execution
// modes:
//
//   - Sequential runs everything on the caller's goroutine. It is the
//     reference implementation: byte-for-byte deterministic, zero
//     coordination overhead, and allocation-free in steady state (one
//     reused Request, flat feature vectors inside the detectors). Pick it
//     for single-core replays, debugging, outputs that need one total
//     order, and as the equivalence oracle.
//
//   - ShardedRelaxed partitions the enriched stream by client IP
//     (fnvhash.Shard) across N worker shards, each owning a private
//     instance of every detector built from detector.Factory values.
//     Requests stream through one bounded SPSC ring per shard
//     (internal/spsc) and every shard drains into its own sink on its own
//     goroutine. Every detector keys its state by client, and session
//     expiry is decidable from a key's own touch times alone, so a
//     client's verdicts are identical whichever shard serves it: each
//     client's decision sequence is byte-identical to Sequential, and the
//     union of all shards' decisions is multiset-equal to the sequential
//     stream. Per-client order is all the detectors, session stores and
//     the mitigation ladder require, and every measure the paper reports
//     is an order-free count. This is the mode whose throughput scales
//     with GOMAXPROCS. See relaxed.go.
//
// Determinism guarantee: for the same input stream, Sequential invokes
// the sink with identical Decision contents in identical order on every
// run; ShardedRelaxed invokes its per-shard sinks with the same decisions
// in a per-client-preserving permutation of that order. Only the
// cross-client interleaving differs.
//
// Pipelines are also durable: Checkpoint serialises the enricher position
// and every detector's per-client state in a canonical, shard-agnostic
// form, and ResumeFrom restores it into a fresh pipeline of either mode
// and any shard count, continuing the decision stream byte-identically —
// see checkpoint.go and internal/statecodec.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/spsc"
	"divscrape/internal/trace"
)

// Decision is the pipeline's per-request output: the enriched request and
// one verdict per registered detector, in registration order.
type Decision struct {
	// Req is the enriched request. The pointer is owned by the pipeline
	// and only valid during the sink call; copy what you keep.
	Req *detector.Request
	// Verdicts aligns with the pipeline's detector list. Like Req, the
	// slice is owned by the pipeline and reused after the sink returns;
	// copy what you keep.
	Verdicts []detector.Verdict
}

// Mode selects the execution strategy.
type Mode int

const (
	// Sequential runs everything on the caller's goroutine; byte-for-byte
	// deterministic and allocation-light. The default.
	Sequential Mode = iota + 1
	// ShardedRelaxed partitions the stream by client IP across worker
	// shards, each owning private detector instances built from
	// Config.Factories: requests travel through one bounded SPSC ring per
	// shard and each shard drains straight into its own sink, guaranteeing
	// per-client order only (all any detector, session store or the
	// mitigation ladder depends on). The whole-stream Decision multiset
	// equals Sequential's; the interleaving across clients does not. See
	// relaxed.go and RunRelaxed.
	ShardedRelaxed
)

// Config parameterises New.
type Config struct {
	// Detectors is the ordered detector list. Required in Sequential
	// mode unless Factories is set, in which case the list is built from
	// the factories.
	Detectors []detector.Detector
	// Factories builds private detector instances per shard, in the same
	// order as Detectors. Required in ShardedRelaxed mode.
	Factories []detector.Factory
	// Reputation enriches requests with IP categories; nil disables.
	Reputation *iprep.DB
	// Mode selects Sequential (default) or ShardedRelaxed execution.
	Mode Mode
	// Buffer is the per-shard ring depth in ShardedRelaxed mode, counted
	// in requests. Default 256.
	Buffer int
	// Shards is the worker count in ShardedRelaxed mode. Default
	// GOMAXPROCS.
	Shards int
	// EvictWindow, when positive, enables windowed eviction: as stream
	// (event) time advances, detector state untouched for longer than the
	// window is proactively dropped via detector.Evictable, so
	// steady-state memory over an unbounded stream is O(clients active in
	// the window) instead of O(clients ever seen). Keep the window at or
	// above every detector's idle timeout and eviction is verdict-neutral
	// in every mode — proactive sweeps drop exactly the state lazy idle
	// expiry would have dropped before its next read (pinned by the
	// metamorphic eviction-equivalence test). Zero disables sweeping.
	EvictWindow time.Duration
	// EvictEvery is the sweep cadence, measured in event time. Default
	// EvictWindow/4 (at least one second).
	EvictEvery time.Duration
	// Trace, when non-nil, records per-stage spans (parse, enrich, one
	// detect span per detector, sink) and — in ShardedRelaxed mode — the
	// per-shard ring occupancy gauges. Tracing is observation only: the
	// Decision stream and checkpoint bytes are identical with Trace set or
	// nil (pinned by the tracing equivalence tests), and a nil Trace costs
	// one nil check per span point, keeping the hot path allocation-free.
	// Build with trace.New, passing Shards matching this config's (post-
	// default) shard count when Mode is ShardedRelaxed.
	Trace *trace.Tracer
}

// Pipeline executes detection runs. It is single-use-at-a-time: a Pipeline
// must not run two streams concurrently, but may be reused sequentially
// (detector state carries over; call ResetDetectors between independent
// datasets).
type Pipeline struct {
	cfg      Config
	enricher *detector.Enricher
	// shardDets holds each shard's private detector instances in
	// ShardedRelaxed mode (built once at New, so detector state persists
	// across Run calls exactly as it does in Sequential mode).
	shardDets [][]detector.Detector
	// reqPool recycles the Requests the relaxed mode streams through its
	// rings. It lives on the Pipeline — not the run — so repeated Run
	// calls share one warmed pool instead of re-allocating their working
	// set every run.
	reqPool sync.Pool
	// seqVerdicts is the sequential mode's reused verdict slab.
	seqVerdicts []detector.Verdict
	// rings and relaxedVerdicts are the ShardedRelaxed working set: one
	// SPSC hand-off ring and one reused verdict slab per shard, allocated
	// once at New and reused across runs.
	rings           []*relaxedRing
	relaxedVerdicts [][]detector.Verdict
	// seqEvictLast is the sequential mode's sweep cadence anchor; relaxed
	// shard workers keep their own anchors on the run's goroutines. sweeps
	// and evicted are atomics because shard workers update them.
	seqEvictLast time.Time
	sweeps       atomic.Uint64
	evicted      atomic.Uint64
}

// New validates cfg and builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	for i, f := range cfg.Factories {
		if f == nil {
			return nil, fmt.Errorf("pipeline: factory %d is nil", i)
		}
	}
	for i, d := range cfg.Detectors {
		if d == nil {
			return nil, fmt.Errorf("pipeline: detector %d is nil", i)
		}
	}
	if cfg.Mode == 0 {
		cfg.Mode = Sequential
	}
	if cfg.Mode != Sequential && cfg.Mode != ShardedRelaxed {
		return nil, fmt.Errorf("pipeline: invalid mode %d", int(cfg.Mode))
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.EvictWindow < 0 {
		return nil, fmt.Errorf("pipeline: EvictWindow must be non-negative, got %v", cfg.EvictWindow)
	}
	if cfg.EvictWindow > 0 && cfg.EvictEvery <= 0 {
		cfg.EvictEvery = cfg.EvictWindow / 4
		if cfg.EvictEvery < time.Second {
			cfg.EvictEvery = time.Second
		}
	}
	if cfg.Mode == Sequential {
		if len(cfg.Detectors) == 0 && len(cfg.Factories) > 0 {
			dets, err := buildDetectors(cfg.Factories)
			if err != nil {
				return nil, err
			}
			cfg.Detectors = dets
		}
		if len(cfg.Detectors) == 0 {
			return nil, fmt.Errorf("pipeline: need at least one detector")
		}
		return &Pipeline{cfg: cfg, enricher: detector.NewEnricher(cfg.Reputation)}, nil
	}

	if len(cfg.Factories) == 0 {
		return nil, fmt.Errorf("pipeline: ShardedRelaxed mode requires Factories")
	}
	if len(cfg.Detectors) > 0 && len(cfg.Factories) != len(cfg.Detectors) {
		return nil, fmt.Errorf("pipeline: %d factories for %d detectors",
			len(cfg.Factories), len(cfg.Detectors))
	}
	// No prototype set is built here: shard 0's instances serve for
	// names, and Run never touches cfg.Detectors in this mode. Each shard
	// gets one ring, Buffer requests deep (spsc rounds up to a power of
	// two), and one reused verdict slab. The maximum in-flight Request
	// count is the sum of ring capacities plus one per worker and one at
	// the producer; the pool is pre-filled to that bound so the first run
	// streams without allocating.
	p := &Pipeline{cfg: cfg, enricher: detector.NewEnricher(cfg.Reputation)}
	p.reqPool.New = func() any { return new(detector.Request) }
	p.shardDets = make([][]detector.Detector, cfg.Shards)
	p.rings = make([]*relaxedRing, cfg.Shards)
	p.relaxedVerdicts = make([][]detector.Verdict, cfg.Shards)
	inflight := cfg.Shards + 1
	for i := range p.shardDets {
		dets, err := buildDetectors(cfg.Factories)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d: %w", i, err)
		}
		p.shardDets[i] = dets
		p.rings[i] = spsc.New[*detector.Request](cfg.Buffer)
		p.relaxedVerdicts[i] = make([]detector.Verdict, len(cfg.Factories))
		inflight += p.rings[i].Cap()
	}
	for i := 0; i < inflight; i++ {
		p.reqPool.Put(new(detector.Request))
	}
	return p, nil
}

func buildDetectors(factories []detector.Factory) ([]detector.Detector, error) {
	dets := make([]detector.Detector, len(factories))
	for i, f := range factories {
		d, err := f()
		if err != nil {
			return nil, fmt.Errorf("pipeline: build detector %d: %w", i, err)
		}
		if d == nil {
			return nil, fmt.Errorf("pipeline: factory %d returned nil detector", i)
		}
		dets[i] = d
	}
	return dets, nil
}

// Shards returns the effective worker-shard count: the configured (or
// defaulted) count in ShardedRelaxed mode, 1 in Sequential mode.
// Benchmarks report it so recorded results stay interpretable across
// machines.
func (p *Pipeline) Shards() int {
	if p.shardDets != nil {
		return len(p.shardDets)
	}
	return 1
}

// Detectors returns the registered detector names in order.
func (p *Pipeline) Detectors() []string {
	dets := p.cfg.Detectors
	if len(dets) == 0 && len(p.shardDets) > 0 {
		dets = p.shardDets[0]
	}
	names := make([]string, len(dets))
	for i, d := range dets {
		names[i] = d.Name()
	}
	return names
}

// ResetDetectors clears all detector and enricher state, preparing the
// pipeline for an independent dataset.
func (p *Pipeline) ResetDetectors() {
	for _, d := range p.cfg.Detectors {
		d.Reset()
	}
	for _, shard := range p.shardDets {
		for _, d := range shard {
			d.Reset()
		}
	}
	p.enricher.Reset()
}

// maybeEvict advances one worker's sweep cadence to now (event time) and,
// when a full EvictEvery has elapsed, drops state older than the window
// from the given detectors. Each worker sweeps only the detector
// instances it owns, so no cross-goroutine coordination is needed; the
// per-request cost when no sweep is due is a single time comparison.
func (p *Pipeline) maybeEvict(last *time.Time, now time.Time, dets []detector.Detector) {
	if p.cfg.EvictWindow <= 0 || now.IsZero() {
		return
	}
	if last.IsZero() {
		*last = now
		return
	}
	if now.Sub(*last) < p.cfg.EvictEvery {
		return
	}
	*last = now
	cutoff := now.Add(-p.cfg.EvictWindow)
	n := 0
	for _, d := range dets {
		if ev, ok := d.(detector.Evictable); ok {
			n += ev.EvictBefore(cutoff)
		}
	}
	p.sweeps.Add(1)
	p.evicted.Add(uint64(n))
}

// EvictBefore proactively drops detector state untouched since cutoff
// across every detector instance (all shards in ShardedRelaxed mode),
// returning the total evicted. It must not be called while a Run is in
// flight — detector state is owned by the run's workers; between runs
// the caller owns it (the same contract as Checkpoint).
func (p *Pipeline) EvictBefore(cutoff time.Time) int {
	n := 0
	for _, d := range p.cfg.Detectors {
		if ev, ok := d.(detector.Evictable); ok {
			n += ev.EvictBefore(cutoff)
		}
	}
	for _, shard := range p.shardDets {
		for _, d := range shard {
			if ev, ok := d.(detector.Evictable); ok {
				n += ev.EvictBefore(cutoff)
			}
		}
	}
	return n
}

// EvictionStats reports how many windowed sweeps have run and how many
// state entries they evicted (lifetime, across all workers).
func (p *Pipeline) EvictionStats() (sweeps, evicted uint64) {
	return p.sweeps.Load(), p.evicted.Load()
}

// EntrySource yields log entries in timestamp order; it returns io.EOF
// when the stream ends.
type EntrySource func() (logfmt.Entry, error)

// Sink consumes decisions (in stream order in Sequential mode, in
// per-client order in ShardedRelaxed mode); returning an error aborts the
// run.
type Sink func(Decision) error

// Run streams src through the detectors into sink. In ShardedRelaxed
// mode every shard drains into the one sink concurrently, so it must be
// safe for concurrent use (and receives decisions in per-client order
// only); order-sensitive relaxed consumers should use RunRelaxed with
// one sink per shard instead.
func (p *Pipeline) Run(ctx context.Context, src EntrySource, sink Sink) error {
	if p.cfg.Mode == ShardedRelaxed {
		return p.runRelaxedShared(ctx, src, sink)
	}
	return p.runSequential(ctx, src, sink)
}

// RunReader streams an access log in Combined Log Format through the
// detectors. Malformed lines are handled according to policy.
func (p *Pipeline) RunReader(ctx context.Context, r io.Reader, policy logfmt.ErrPolicy, sink Sink) error {
	lr := logfmt.NewReader(r, logfmt.ReaderConfig{Policy: policy})
	return p.Run(ctx, lr.Next, sink)
}

func (p *Pipeline) runSequential(ctx context.Context, src EntrySource, sink Sink) error {
	// One Request and one verdict slab reused for the whole run (and across
	// runs): the sink contract says both are only valid during the call, so
	// nothing outlives the loop and the steady-state decision path performs
	// no allocations.
	if p.seqVerdicts == nil {
		p.seqVerdicts = make([]detector.Verdict, len(p.cfg.Detectors))
	}
	verdicts := p.seqVerdicts
	var req detector.Request
	tr := p.cfg.Trace
	n := 0
	for {
		if n%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ts := tr.Now()
		entry, err := src()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("pipeline: source: %w", err)
		}
		ts = tr.Lap(trace.StageParse, ts)
		p.enricher.EnrichInto(&req, entry)
		p.maybeEvict(&p.seqEvictLast, req.Entry.Time, p.cfg.Detectors)
		ts = tr.Lap(trace.StageEnrich, ts) // span includes the eviction-cadence check
		for i, d := range p.cfg.Detectors {
			d.InspectInto(&req, &verdicts[i])
			ts = tr.LapDetector(i, ts)
		}
		if err := sink(Decision{Req: &req, Verdicts: verdicts}); err != nil {
			return fmt.Errorf("pipeline: sink: %w", err)
		}
		tr.Lap(trace.StageSink, ts)
		n++
	}
}
