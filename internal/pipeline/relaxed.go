package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/fnvhash"
	"divscrape/internal/spsc"
	"divscrape/internal/trace"
)

// Relaxed-ordering sharded execution. The producer parses and enriches
// on one goroutine — sequence numbers stay in input order — and
// partitions by client IP; requests travel one at a time through a
// bounded SPSC ring per shard, and each shard drains straight into its
// own sink. Nothing merges the shard streams back into input order, so
// there is no cross-shard synchronisation after the hand-off.
//
// Ordering contract: all requests from one client hash to one shard
// (fnvhash.Shard), the producer enriches in input order, and the ring is
// FIFO, so each client's decision sequence is byte-identical to
// Sequential — which is the only order the detectors, sessions and the
// mitigation ladder depend on. Across clients, the interleaving is a
// permutation of the sequential stream: the union of all shards'
// decisions is multiset-equal to Sequential (every decision carries its
// enricher sequence number, so callers that need total order can sort —
// or should use Sequential). Both guarantees are pinned by the
// metamorphic equivalence suite in relaxed_test.go at ≥50k events.

// relaxedRing is the per-shard hand-off queue. Requests come from the
// pipeline's reqPool and return to it on the shard worker after the sink
// call, so the steady-state stream performs no allocations.
type relaxedRing = spsc.Ring[*detector.Request]

// RunRelaxed streams src through the detectors in ShardedRelaxed mode,
// draining shard i's decisions into sinks[i]. len(sinks) must equal the
// pipeline's shard count. Each sink is called from exactly one goroutine
// (no sink needs to be concurrency-safe), in that shard's stream order;
// across sinks there is no ordering. The usual Decision contract holds
// per call: Req and Verdicts are only valid during the call.
func (p *Pipeline) RunRelaxed(ctx context.Context, src EntrySource, sinks []Sink) error {
	if p.cfg.Mode != ShardedRelaxed {
		return fmt.Errorf("pipeline: RunRelaxed requires ShardedRelaxed mode (have mode %d)", int(p.cfg.Mode))
	}
	if len(sinks) != len(p.shardDets) {
		return fmt.Errorf("pipeline: RunRelaxed needs one sink per shard: %d sinks for %d shards",
			len(sinks), len(p.shardDets))
	}
	for i, s := range sinks {
		if s == nil {
			return fmt.Errorf("pipeline: RunRelaxed sink %d is nil", i)
		}
	}
	return p.runRelaxed(ctx, src, sinks)
}

// runRelaxedShared adapts the single-sink Run entry point: every shard
// drains into the same sink, which therefore must be safe for concurrent
// use. Order-sensitive consumers should call RunRelaxed with per-shard
// sinks or pick the Sequential mode.
func (p *Pipeline) runRelaxedShared(ctx context.Context, src EntrySource, sink Sink) error {
	sinks := make([]Sink, len(p.shardDets))
	for i := range sinks {
		sinks[i] = sink
	}
	return p.runRelaxed(ctx, src, sinks)
}

func (p *Pipeline) runRelaxed(ctx context.Context, src EntrySource, sinks []Sink) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := ctx.Done()

	shards := len(p.shardDets)
	tr := p.cfg.Trace
	reqPool := &p.reqPool

	// Rings persist on the Pipeline across runs (allocated in New) and are
	// closed at the end of every run; an aborted run may additionally
	// leave items queued. Drain and reopen them here — between runs the
	// caller owns the pipeline, so both sides are quiescent.
	rings := p.rings
	for _, r := range rings {
		for {
			req, ok := r.TryPop()
			if !ok {
				break
			}
			reqPool.Put(req)
		}
		r.Reopen()
	}

	sinkErrs := make([]error, shards)
	var srcErr error
	var wg sync.WaitGroup

	// Shard workers: private detector instances, a private reused verdict
	// slab, a private sink. Each worker also paces its own windowed
	// eviction sweeps on the event time of the requests it judges — a
	// shard only holds state for clients that hash to it, and eviction is
	// verdict-neutral, so per-shard cadence drift is invisible.
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int, ring *relaxedRing, dets []detector.Detector, sink Sink) {
			defer wg.Done()
			verdicts := p.relaxedVerdicts[i]
			var evictLast time.Time
			for {
				req, ok := ring.Pop(done)
				if !ok {
					return
				}
				ts := tr.Now()
				for di, d := range dets {
					d.InspectInto(req, &verdicts[di])
					ts = tr.LapDetector(di, ts)
				}
				err := sink(Decision{Req: req, Verdicts: verdicts})
				tr.Lap(trace.StageSink, ts)
				p.maybeEvict(&evictLast, req.Entry.Time, dets)
				reqPool.Put(req)
				if err != nil {
					sinkErrs[i] = fmt.Errorf("pipeline: sink: %w", err)
					cancel()
					return
				}
			}
		}(i, rings[i], p.shardDets[i], sinks[i])
	}

	// Producer on the caller's goroutine: parse + enrich in input order
	// (the enricher owns the sequence counter), route by client hash,
	// push into the shard's ring. A full ring blocks the producer — that
	// is the backpressure path; the ring parks on a wake channel rather
	// than spinning, so a saturated shard never starves its peers of the
	// core they share.
	for {
		ts := tr.Now()
		entry, err := src()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			srcErr = fmt.Errorf("pipeline: source: %w", err)
			cancel()
			break
		}
		ts = tr.Lap(trace.StageParse, ts)
		req := reqPool.Get().(*detector.Request)
		p.enricher.EnrichInto(req, entry)
		tr.Lap(trace.StageEnrich, ts)
		s := fnvhash.Shard(req.IP, shards)
		if !rings[s].Push(done, req) {
			// Cancelled (a sink error or the caller's context); the
			// request never entered the ring.
			reqPool.Put(req)
			break
		}
		tr.RingDepth(s, rings[s].Len())
	}

	// End of stream (or abort): close every ring so workers drain what is
	// queued and exit, then collect the first error by shard order. (The
	// next run's drain-and-reopen reclaims anything a cancelled worker
	// left queued.)
	for _, r := range rings {
		r.Close()
	}
	wg.Wait()

	if srcErr != nil {
		return srcErr
	}
	for _, err := range sinkErrs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
