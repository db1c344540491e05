package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/pipeline"
	"divscrape/internal/statecodec"
	"divscrape/internal/trajectory"
)

// replayConfig shapes a replay workload's program.
type replayConfig struct {
	mode   pipeline.Mode
	shards int
	// evictWindow enables the pipeline's windowed eviction and the
	// ladder's idle sweeps.
	evictWindow time.Duration
	// checkpointEvery, when positive, ends a Run after that many
	// requests, checkpoints pipeline and ladder, and resumes the stream in
	// the other of two pipelines.
	checkpointEvery int
}

// replay drives CLF bytes through logfmt.Reader → pipeline.Run/RunRelaxed
// with sentinel, arcane and trajectory → a graduated mitigate.Engine in
// the sink.
type replay struct {
	cfg     replayConfig
	in      *input
	out     []outcome
	tm      *timing
	tr      *tracer
	pipes   []*pipeline.Pipeline
	ladders []*ladder
	sinks   []pipeline.Sink
	w       *statecodec.Writer
	model   *trajectory.Model
	feed    *iprep.DB

	reader *logfmt.Reader
	// n counts the entries the source has handed out this pass; limit
	// ends the current Run early (checkpoints) and eof records that the
	// reader itself is exhausted.
	n, limit int
	eof      bool
	// cur is the pipeline (and ladder) holding the stream's state.
	cur   int
	stats passStats
}

// noSpan is a sequence number outside the sampled subset, for calls that
// belong to no request.
const noSpan = 1

// passStats are the per-pass counts a runner reports.
type passStats struct {
	failed          uint64
	lines, skipped  int
	sweeps, evicted uint64
	checkpoints     int
	snapshotBytes   int
	// clients is the number of clients holding ladder state at the end.
	clients int
}

func newReplay(cfg replayConfig, in *input, out []outcome, tm *timing, model *trajectory.Model, tr *tracer) (*replay, error) {
	r := &replay{cfg: cfg, in: in, out: out, tm: tm, tr: tr, model: model,
		feed: iprep.BuildFeed(), w: statecodec.NewWriter()}
	return r, r.build()
}

// laneOf is the trace lane of relaxed shard i (lane 1+i) or, in the
// single-goroutine modes, of the one goroutine (lane 0).
func (r *replay) laneOf(i int) *lane {
	if r.tr == nil {
		return nil
	}
	if r.cfg.mode == pipeline.ShardedRelaxed {
		return r.tr.lanes[1+i]
	}
	return r.tr.lanes[0]
}

// build makes fresh pipelines and ladders.
func (r *replay) build() error {
	var timed func(int) *lane
	if r.tr != nil {
		timed = r.laneOf
	}
	npipes := 1
	if r.cfg.checkpointEvery > 0 {
		npipes = 2
	}
	sweepEvery := 0
	if r.cfg.evictWindow > 0 {
		sweepEvery = 4096
	}
	r.pipes, r.ladders, r.sinks = nil, nil, nil
	for p := 0; p < npipes; p++ {
		pipe, err := pipeline.New(pipeline.Config{
			Factories:   timedFactories(r.model, timed),
			Reputation:  r.feed,
			Mode:        r.cfg.mode,
			Shards:      r.cfg.shards,
			EvictWindow: r.cfg.evictWindow,
		})
		if err != nil {
			return err
		}
		r.pipes = append(r.pipes, pipe)
	}
	nladders := npipes
	if r.cfg.mode == pipeline.ShardedRelaxed {
		nladders = r.pipes[0].Shards()
	}
	for i := 0; i < nladders; i++ {
		l, err := newLadder(r.out, r.tm, sweepEvery)
		if err != nil {
			return err
		}
		l.ln = r.laneOf(i)
		r.ladders = append(r.ladders, l)
		r.sinks = append(r.sinks, l.sink)
	}
	return nil
}

// reset returns the program to its just-built state. With eviction on,
// the pipelines are rebuilt: ResetDetectors keeps the sequential sweep
// cadence anchored at the previous pass's last event time, and a replay
// that starts earlier would then never sweep.
func (r *replay) reset() error {
	clear(r.out)
	if r.cfg.evictWindow > 0 {
		return r.build()
	}
	for _, p := range r.pipes {
		p.ResetDetectors()
	}
	for _, l := range r.ladders {
		l.engine.Reset()
	}
	return nil
}

// source is the pipeline's EntrySource: it reads the next entry and
// stamps the start of the sampled requests' latency.
func (r *replay) source() (logfmt.Entry, error) {
	if r.n == r.limit {
		return logfmt.Entry{}, io.EOF
	}
	var ln *lane
	if r.tr != nil {
		ln = r.tr.lanes[0]
	}
	seq := uint64(r.n)
	r.tm.mark(seq)
	start := ln.enter(layerSource)
	e, err := r.reader.Next()
	ln.leave(layerSource, start, seq)
	if err != nil {
		if errors.Is(err, io.EOF) {
			r.eof = true
		}
		return e, err
	}
	r.tm.start(seq)
	r.n++
	return e, nil
}

// pass replays the whole log once; the meter covers everything from
// opening the reader to the last decision.
func (r *replay) pass(m *meter) (passStats, error) {
	sweeps0, evicted0 := r.evictions()
	r.stats = passStats{}
	r.n, r.limit, r.eof, r.cur = 0, -1, false, 0
	ctx := context.Background()
	var err error
	m.start()
	r.reader = logfmt.NewReader(bytes.NewReader(r.in.clf), logfmt.ReaderConfig{Policy: logfmt.Skip})
	switch {
	case r.cfg.mode == pipeline.ShardedRelaxed:
		err = r.pipes[0].RunRelaxed(ctx, r.source, r.sinks)
	case r.cfg.checkpointEvery > 0:
		err = r.chain(ctx)
	default:
		err = r.pipes[0].Run(ctx, r.source, r.sinks[0])
	}
	m.stop()
	if err != nil {
		return r.stats, err
	}
	st := r.stats
	st.lines, st.skipped = r.reader.Lines(), r.reader.Skipped()
	st.failed = uint64(st.skipped)
	sweeps1, evicted1 := r.evictions()
	st.sweeps, st.evicted = sweeps1-sweeps0, evicted1-evicted0
	if r.cfg.checkpointEvery > 0 {
		st.clients = r.ladders[r.cur].engine.Len()
	} else {
		for _, l := range r.ladders {
			st.clients += l.engine.Len()
		}
	}
	return st, nil
}

func (r *replay) evictions() (sweeps, evicted uint64) {
	for _, p := range r.pipes {
		s, e := p.EvictionStats()
		sweeps += s
		evicted += e
	}
	return sweeps, evicted
}

// chain replays the log in Runs of checkpointEvery requests, handing the
// full state — pipeline checkpoint plus ladder snapshot — from one
// pipeline to the other after each.
func (r *replay) chain(ctx context.Context) error {
	var ln *lane
	if r.tr != nil {
		ln = r.tr.lanes[0]
	}
	for {
		cur := r.cur
		r.limit = r.n + r.cfg.checkpointEvery
		if err := r.pipes[cur].Run(ctx, r.source, r.sinks[cur]); err != nil {
			return err
		}
		if r.eof {
			return nil
		}
		next := 1 - cur
		r.w.Reset()
		start := ln.enter(layerCheckpoint)
		if err := r.pipes[cur].Checkpoint(r.w); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		r.ladders[cur].engine.SnapshotInto(r.w)
		if err := r.w.Err(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ln.leave(layerCheckpoint, start, noSpan)
		r.stats.checkpoints++
		r.stats.snapshotBytes += r.w.Len()
		start = ln.enter(layerRestore)
		rd := statecodec.NewReader(r.w.Bytes())
		if err := r.pipes[next].ResumeFrom(rd); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if err := r.ladders[next].engine.RestoreFrom(rd); err != nil {
			return fmt.Errorf("resume ladder: %w", err)
		}
		ln.leave(layerRestore, start, noSpan)
		r.cur = next
	}
}
