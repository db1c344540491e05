package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// rxDecision is one decision flattened for equivalence comparison: the
// enricher sequence number, the client key, and every verdict field the
// sink can observe.
type rxDecision struct {
	seq      uint64
	ip       uint32
	alerts   [2]bool
	scores   [2]float64
	reasons0 string
	reasons1 string
}

func flatten(d Decision) rxDecision {
	return rxDecision{
		seq:      d.Req.Seq,
		ip:       d.Req.IP,
		alerts:   [2]bool{d.Verdicts[0].Alert, d.Verdicts[1].Alert},
		scores:   [2]float64{d.Verdicts[0].Score, d.Verdicts[1].Score},
		reasons0: d.Verdicts[0].Reasons.Join(","),
		reasons1: d.Verdicts[1].Reasons.Join(","),
	}
}

func newRelaxed(t testing.TB, shards, buffer int) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Factories:  pairFactories(),
		Reputation: iprep.BuildFeed(),
		Mode:       ShardedRelaxed,
		Shards:     shards,
		Buffer:     buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runRelaxedCollect drives RunRelaxed with one collecting sink per shard
// and returns each shard's decision stream in arrival order.
func runRelaxedCollect(t *testing.T, p *Pipeline, src EntrySource) [][]rxDecision {
	t.Helper()
	out := make([][]rxDecision, len(p.shardDets))
	sinks := make([]Sink, len(out))
	for i := range sinks {
		i := i
		sinks[i] = func(d Decision) error {
			out[i] = append(out[i], flatten(d))
			return nil
		}
	}
	if err := p.RunRelaxed(context.Background(), src, sinks); err != nil {
		t.Fatal(err)
	}
	return out
}

// perClient groups a decision stream by client, preserving order.
func perClient(streams ...[]rxDecision) map[uint32][]rxDecision {
	m := make(map[uint32][]rxDecision)
	for _, s := range streams {
		for _, d := range s {
			m[d.ip] = append(m[d.ip], d)
		}
	}
	return m
}

// TestRelaxedEquivalenceLargeStream is the relaxed mode's headline proof,
// the analogue of TestShardedEquivalenceLargeStream under the weaker
// contract: over a ≥50k-event stream and across several shard counts,
// (1) every client's decision sequence is byte-identical to the
// sequential reference — same verdicts, same relative order, same
// sequence numbers — and (2) the union of all shards' decisions is
// multiset-equal to the sequential stream (proved by sorting on the
// unique sequence number and comparing element-wise).
func TestRelaxedEquivalenceLargeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	events := generate(t, 6)
	if len(events) < 50000 {
		t.Fatalf("stream too small for the equivalence bar: %d events", len(events))
	}

	ref := make([]rxDecision, 0, len(events))
	err := newPipe(t, Sequential).Run(context.Background(), sourceFrom(events), func(d Decision) error {
		ref = append(ref, flatten(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refByClient := perClient(ref)

	for _, shards := range []int{1, 3, 8} {
		// Buffer 64 keeps the rings small so full-ring parking and the
		// wake protocol are genuinely exercised, not just the fast path.
		shardStreams := runRelaxedCollect(t, newRelaxed(t, shards, 64), sourceFrom(events))

		total := 0
		merged := make([]rxDecision, len(events))
		seen := make(map[uint32]int) // client -> shard that served it
		for si, stream := range shardStreams {
			total += len(stream)
			for _, d := range stream {
				if prev, ok := seen[d.ip]; ok && prev != si {
					t.Fatalf("shards=%d: client %d served by shards %d and %d — partitioning broken",
						shards, d.ip, prev, si)
				}
				seen[d.ip] = si
				if d.seq >= uint64(len(events)) {
					t.Fatalf("shards=%d: sequence %d out of range", shards, d.seq)
				}
				merged[d.seq] = d
			}
		}
		if total != len(events) {
			t.Fatalf("shards=%d: %d decisions, want %d", shards, total, len(events))
		}
		// Multiset equality: sequence numbers are unique and the reference
		// is seq-ordered, so placing each relaxed decision at its sequence
		// index and comparing element-wise proves the streams are
		// permutations of each other with identical contents.
		for i := range ref {
			if merged[i] != ref[i] {
				t.Fatalf("shards=%d: decision seq=%d differs:\n  seq     %+v\n  relaxed %+v",
					shards, i, ref[i], merged[i])
			}
		}
		// Per-client total order: each shard's stream is FIFO per client,
		// so grouping by client must reproduce the reference sequences
		// exactly.
		gotByClient := perClient(shardStreams...)
		if len(gotByClient) != len(refByClient) {
			t.Fatalf("shards=%d: %d clients, want %d", shards, len(gotByClient), len(refByClient))
		}
		for ip, want := range refByClient {
			got := gotByClient[ip]
			if len(got) != len(want) {
				t.Fatalf("shards=%d: client %d has %d decisions, want %d", shards, ip, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d: client %d decision %d out of order or altered:\n  want %+v\n  got  %+v",
						shards, ip, i, want[i], got[i])
				}
			}
		}
	}
}

// TestRelaxedSharedSinkMultiset covers the single-sink Run entry point
// (the facade/experiments shape): a mutex-guarded shared sink sees every
// decision exactly once with sequential-identical contents.
func TestRelaxedSharedSinkMultiset(t *testing.T) {
	events := generate(t, 2)

	ref := make([]rxDecision, 0, len(events))
	err := newPipe(t, Sequential).Run(context.Background(), sourceFrom(events), func(d Decision) error {
		ref = append(ref, flatten(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p := newRelaxed(t, 4, 64)
	var mu sync.Mutex
	got := make([]rxDecision, len(events))
	filled := make([]bool, len(events))
	err = p.Run(context.Background(), sourceFrom(events), func(d Decision) error {
		f := flatten(d)
		mu.Lock()
		defer mu.Unlock()
		if f.seq >= uint64(len(events)) || filled[f.seq] {
			return fmt.Errorf("sequence %d out of range or duplicated", f.seq)
		}
		filled[f.seq] = true
		got[f.seq] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !filled[i] {
			t.Fatalf("decision seq=%d never delivered", i)
		}
		if got[i] != ref[i] {
			t.Fatalf("decision seq=%d differs:\n  seq     %+v\n  relaxed %+v", i, ref[i], got[i])
		}
	}
}

// TestRelaxedCheckpointResume proves checkpoint/resume composes with
// relaxed ordering: interrupt a relaxed replay at the midpoint,
// checkpoint, restore into a fresh relaxed pipeline with a different
// shard count, finish the stream — and every client's concatenated
// decision sequence is byte-identical to an uninterrupted sequential run.
func TestRelaxedCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	events := generate(t, 6)
	if len(events) < 50000 {
		t.Fatalf("stream too small for the equivalence bar: %d events", len(events))
	}
	k := len(events) / 2

	ref := make([]rxDecision, 0, len(events))
	err := newPipe(t, Sequential).Run(context.Background(), sourceFrom(events), func(d Decision) error {
		ref = append(ref, flatten(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refByClient := perClient(ref)

	head := newRelaxed(t, 3, 64)
	headStreams := runRelaxedCollect(t, head, sourceFrom(events[:k]))
	frame := checkpoint(t, head)

	tail := newRelaxed(t, 8, 64)
	resume(t, tail, frame)
	tailStreams := runRelaxedCollect(t, tail, sourceFrom(events[k:]))

	gotByClient := perClient(headStreams...)
	for ip, ds := range perClient(tailStreams...) {
		gotByClient[ip] = append(gotByClient[ip], ds...)
	}
	if len(gotByClient) != len(refByClient) {
		t.Fatalf("%d clients, want %d", len(gotByClient), len(refByClient))
	}
	for ip, want := range refByClient {
		got := gotByClient[ip]
		if len(got) != len(want) {
			t.Fatalf("client %d: %d decisions across resume, want %d", ip, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("client %d decision %d diverged across checkpoint/resume:\n  want %+v\n  got  %+v",
					ip, i, want[i], got[i])
			}
		}
	}
}

// TestRelaxedEvictionNeutralAtIdleWindow extends the eviction-neutrality
// proof to relaxed ordering: with the window at or above every detector
// idle timeout, per-shard windowed sweeps change no per-client decision
// sequence.
func TestRelaxedEvictionNeutralAtIdleWindow(t *testing.T) {
	events := generate(t, 6)

	ref := make([]rxDecision, 0, len(events))
	err := newPipe(t, Sequential).Run(context.Background(), sourceFrom(events), func(d Decision) error {
		ref = append(ref, flatten(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refByClient := perClient(ref)

	p, err := New(Config{
		Factories:   pairFactories(),
		Reputation:  iprep.BuildFeed(),
		Mode:        ShardedRelaxed,
		Shards:      3,
		Buffer:      64,
		EvictWindow: time.Hour, // == sentinel idle, > arcane idle
		EvictEvery:  10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotByClient := perClient(runRelaxedCollect(t, p, sourceFrom(events))...)
	if len(gotByClient) != len(refByClient) {
		t.Fatalf("%d clients, want %d", len(gotByClient), len(refByClient))
	}
	for ip, want := range refByClient {
		got := gotByClient[ip]
		if len(got) != len(want) {
			t.Fatalf("client %d: %d decisions, want %d", ip, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("client %d: idle-window eviction changed decision %d under relaxed ordering:\n  want %+v\n  got  %+v",
					ip, i, want[i], got[i])
			}
		}
	}
	// With the window equal to the longest idle timeout, sweeps may find
	// nothing to drop (lazy expiry or a returning client beat them to it)
	// — that is the neutrality being proven — but the cadence itself must
	// run or the test is vacuous.
	if sweeps, _ := p.EvictionStats(); sweeps == 0 {
		t.Error("no sweeps ran; eviction neutrality is vacuous")
	}
}

// TestRelaxedEvictionEquivalenceAggressive is the relaxed leg of the
// metamorphic eviction-equivalence property: under a window well below
// the detector idle timeouts — so sweeps genuinely drop mid-stream state
// — every decision whose client state could not have expired is identical
// to the no-eviction sequential reference, in relaxed order.
func TestRelaxedEvictionEquivalenceAggressive(t *testing.T) {
	events := generate(t, 6)
	const (
		window = 10 * time.Minute
		every  = 2 * time.Minute
	)
	clean, dirty := cleanRequests(events, window)
	if dirty == 0 {
		t.Fatal("no request ever expires under the window; the test is vacuous")
	}

	ref := make([]rxDecision, 0, len(events))
	err := newPipe(t, Sequential).Run(context.Background(), sourceFrom(events), func(d Decision) error {
		ref = append(ref, flatten(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p, err := New(Config{
		Factories:   pairFactories(),
		Reputation:  iprep.BuildFeed(),
		Mode:        ShardedRelaxed,
		Shards:      3,
		Buffer:      64,
		EvictWindow: window,
		EvictEvery:  every,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]rxDecision, len(events))
	for _, stream := range runRelaxedCollect(t, p, sourceFrom(events)) {
		for _, d := range stream {
			merged[d.seq] = d
		}
	}
	for i := range ref {
		if clean[i] && merged[i] != ref[i] {
			t.Fatalf("eviction changed non-expired decision seq=%d under relaxed ordering:\n  reference %+v\n  relaxed   %+v",
				i, ref[i], merged[i])
		}
	}
	sweeps, evicted := p.EvictionStats()
	if sweeps == 0 || evicted == 0 {
		t.Errorf("sweeps=%d evicted=%d; eviction never ran, equivalence is vacuous", sweeps, evicted)
	}
}

// TestRelaxedVerdictsNotAliased is the relaxed analogue of the sharded
// aliasing test: per-shard verdict slabs and pooled requests recycle
// constantly, and a sink that poisons everything it reads must still see
// sequential-identical contents for every sequence number. A tiny ring
// maximises reuse pressure. Run under -race in CI (make race).
func TestRelaxedVerdictsNotAliased(t *testing.T) {
	events := generate(t, 2)

	type ref struct {
		alerts  [2]bool
		scores  [2]float64
		reasons [2]detector.ReasonList
	}
	want := make([]ref, 0, len(events))
	err := newPipe(t, Sequential).Run(context.Background(), sourceFrom(events), func(d Decision) error {
		want = append(want, ref{
			alerts:  [2]bool{d.Verdicts[0].Alert, d.Verdicts[1].Alert},
			scores:  [2]float64{d.Verdicts[0].Score, d.Verdicts[1].Score},
			reasons: [2]detector.ReasonList{d.Verdicts[0].Reasons, d.Verdicts[1].Reasons},
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p := newRelaxed(t, 4, 8) // 8-slot rings force heavy pool churn
	var n atomic.Uint64
	sinks := make([]Sink, 4)
	for i := range sinks {
		sinks[i] = func(d Decision) error {
			// Each sequence number arrives exactly once across all shards,
			// so distinct goroutines only ever read distinct elements.
			if d.Req.Seq >= uint64(len(want)) {
				return fmt.Errorf("seq %d out of range", d.Req.Seq)
			}
			w := &want[d.Req.Seq]
			for i := 0; i < 2; i++ {
				if d.Verdicts[i].Alert != w.alerts[i] || d.Verdicts[i].Score != w.scores[i] ||
					d.Verdicts[i].Reasons != w.reasons[i] {
					return fmt.Errorf("seq %d verdict %d diverged from sequential reference (buffer aliasing?): got %+v",
						d.Req.Seq, i, d.Verdicts[i])
				}
			}
			for i := range d.Verdicts {
				d.Verdicts[i] = detector.Verdict{Score: -1, Alert: true, Reasons: detector.ReasonsOf("poisoned")}
			}
			d.Req.Seq = ^uint64(0)
			n.Add(1)
			return nil
		}
	}
	if err := p.RunRelaxed(context.Background(), sourceFrom(events), sinks); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != uint64(len(events)) {
		t.Fatalf("relaxed run delivered %d of %d decisions", got, len(events))
	}
}

func TestRelaxedSinkErrorStopsRun(t *testing.T) {
	events := generate(t, 1)
	boom := errors.New("boom")

	// Per-shard sinks: shard 1 fails after a few decisions.
	p := newRelaxed(t, 4, 64)
	sinks := make([]Sink, 4)
	var calls atomic.Uint64
	for i := range sinks {
		i := i
		n := 0
		sinks[i] = func(Decision) error {
			calls.Add(1)
			if i == 1 {
				if n++; n == 10 {
					return boom
				}
			}
			return nil
		}
	}
	err := p.RunRelaxed(context.Background(), sourceFrom(events), sinks)
	if !errors.Is(err, boom) {
		t.Errorf("per-shard sink error = %v, want boom", err)
	}
	if got := calls.Load(); got >= uint64(len(events)) {
		t.Errorf("sink error did not stop the run: %d calls for %d events", got, len(events))
	}

	// Shared-sink Run path.
	p2 := newRelaxed(t, 4, 64)
	var n2 atomic.Uint64
	err = p2.Run(context.Background(), sourceFrom(events), func(Decision) error {
		if n2.Add(1) == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("shared sink error = %v, want boom", err)
	}
}

func TestRelaxedSourceErrorPropagates(t *testing.T) {
	bad := errors.New("disk on fire")
	p := newRelaxed(t, 4, 64)
	calls := 0
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	src := func() (logfmt.Entry, error) {
		calls++
		if calls > 3 {
			return logfmt.Entry{}, bad
		}
		return logfmt.Entry{
			RemoteAddr: "10.0.0.1", Time: base.Add(time.Duration(calls) * time.Second),
			Method: "GET", Path: "/", Proto: "HTTP/1.1",
			Status: 200, Bytes: 1, Referer: "-", UserAgent: "x",
		}, nil
	}
	err := p.Run(context.Background(), src, func(Decision) error { return nil })
	if !errors.Is(err, bad) {
		t.Errorf("error = %v, want source error", err)
	}
}

func TestRelaxedContextCancellation(t *testing.T) {
	events := generate(t, 2)
	p := newRelaxed(t, 4, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Uint64
	err := p.Run(ctx, sourceFrom(events), func(Decision) error {
		if n.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
	if got := n.Load(); got > uint64(len(events)/2) {
		t.Errorf("processed %d of %d after cancel", got, len(events))
	}
	// The pipeline must be reusable after an aborted run (rings drained
	// and reopened): a fresh full run still delivers everything.
	p.ResetDetectors()
	var m atomic.Uint64
	if err := p.Run(context.Background(), sourceFrom(events), func(Decision) error { m.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Load(); got != uint64(len(events)) {
		t.Errorf("post-abort run delivered %d of %d decisions", got, len(events))
	}
}

func TestRelaxedNoGoroutineLeaks(t *testing.T) {
	events := generate(t, 1)
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		// Normal completion.
		p := newRelaxed(t, 4, 64)
		if err := p.Run(context.Background(), sourceFrom(events), func(Decision) error { return nil }); err != nil {
			t.Fatal(err)
		}
		// Sink error.
		p2 := newRelaxed(t, 4, 64)
		boom := errors.New("x")
		_ = p2.Run(context.Background(), sourceFrom(events), func(Decision) error { return boom })
		// Cancellation.
		ctx, cancel := context.WithCancel(context.Background())
		p3 := newRelaxed(t, 4, 64)
		var n atomic.Uint64
		_ = p3.Run(ctx, sourceFrom(events), func(Decision) error {
			if n.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	for i := 0; i < 100_000; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
	}
	t.Errorf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}

func TestRelaxedRunValidation(t *testing.T) {
	// RunRelaxed demands the matching mode and one sink per shard.
	seq := newPipe(t, Sequential)
	noop := func(Decision) error { return nil }
	if err := seq.RunRelaxed(context.Background(), sourceFrom(nil), []Sink{noop}); err == nil {
		t.Error("RunRelaxed accepted a Sequential pipeline")
	}
	p := newRelaxed(t, 4, 64)
	if err := p.RunRelaxed(context.Background(), sourceFrom(nil), []Sink{noop}); err == nil {
		t.Error("RunRelaxed accepted 1 sink for 4 shards")
	}
	if err := p.RunRelaxed(context.Background(), sourceFrom(nil), []Sink{noop, nil, noop, noop}); err == nil {
		t.Error("RunRelaxed accepted a nil sink")
	}
	// New demands factories for the relaxed topology.
	if _, err := New(Config{Mode: ShardedRelaxed}); err == nil {
		t.Error("ShardedRelaxed without factories accepted")
	}
	if p.Shards() != 4 {
		t.Errorf("Shards() = %d, want 4", p.Shards())
	}
}

// TestRelaxedTracingEquivalence50k extends the tracing-is-observation-
// only proof to relaxed mode. Order across clients is not deterministic,
// so the stream fingerprint is commutative — a wrapping sum of
// per-decision hashes, which is order-insensitive but multiset-sensitive
// — and the checkpoint bytes must still be identical with the plane
// armed or off. The relaxed tracer must record per-stage spans and ring
// occupancy while counting zero merge stalls (there is no merger to
// stall: that is the point of the mode).
func TestRelaxedTracingEquivalence50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-event replay")
	}
	const total = 50_000
	events := generate(t, 2)

	fingerprint := func(p *Pipeline) (stream uint64, ckpt []byte, n uint64) {
		t.Helper()
		var sum, count atomic.Uint64
		err := p.Run(context.Background(), cyclingSource(events, total), func(d Decision) error {
			h := fnv.New64a()
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], d.Req.Seq)
			h.Write(buf[:])
			for i := range d.Verdicts {
				v := &d.Verdicts[i]
				b := byte(0)
				if v.Alert {
					b = 1
				}
				h.Write([]byte{b})
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Score))
				h.Write(buf[:])
			}
			sum.Add(h.Sum64())
			count.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w := statecodec.NewWriter()
		if err := p.Checkpoint(w); err != nil {
			t.Fatal(err)
		}
		return sum.Load(), append([]byte(nil), w.Bytes()...), count.Load()
	}

	baseHash, baseCkpt, n := fingerprint(newRelaxed(t, 4, 64))
	if n != total {
		t.Fatalf("untraced run sinked %d decisions, want %d", n, total)
	}

	tracer := trace.New(trace.Config{
		Detectors: []string{"sentinel", "arcane"},
		Shards:    4,
		Recorder:  trace.RecorderConfig{Rate: 16},
	})
	p, err := New(Config{
		Factories:  pairFactories(),
		Reputation: iprep.BuildFeed(),
		Mode:       ShardedRelaxed,
		Shards:     4,
		Buffer:     64,
		Trace:      tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracedHash, tracedCkpt, n := fingerprint(p)
	if n != total {
		t.Fatalf("traced run sinked %d decisions, want %d", n, total)
	}
	if tracedHash != baseHash {
		t.Errorf("decision multiset diverged with tracing on: %x != %x", tracedHash, baseHash)
	}
	if !bytes.Equal(tracedCkpt, baseCkpt) {
		t.Error("checkpoint bytes diverged with tracing on")
	}

	stats := map[string]uint64{}
	for _, st := range tracer.StageStats() {
		stats[st.Name()] = st.Count
	}
	for _, stage := range []string{"parse", "enrich", "detect-sentinel", "detect-arcane", "sink"} {
		if stats[stage] != total {
			t.Errorf("stage %s recorded %d spans, want %d", stage, stats[stage], total)
		}
	}
	page := string(tracer.Registry().AppendPrometheus(nil))
	if !strings.Contains(page, "divscrape_shard_ring_depth") {
		t.Error("relaxed tracer registered no ring occupancy gauges")
	}
}

// TestRelaxedSteadyStateAllocs pins the relaxed hot path near zero
// allocations: after a warm run, a full replay costs only the fixed
// per-run setup (context, worker goroutines, sink plumbing) — nothing
// proportional to the stream length.
func TestRelaxedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the channel park/wake path")
	}
	events := generate(t, 2)
	p := newRelaxed(t, 4, 256)
	sinks := make([]Sink, 4)
	for i := range sinks {
		sinks[i] = func(Decision) error { return nil }
	}
	run := func() {
		if err := p.RunRelaxed(context.Background(), sourceFrom(events), sinks); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: caches, sessions, pools

	allocs := testing.AllocsPerRun(1, run)
	// Fixed per-run cost only: context + cancel, 4 worker goroutines and
	// their closures, the per-run error slice, scheduler jitter on pool
	// refills. With tens of thousands of events a budget this small proves
	// the per-request cost is zero.
	const budget = 96
	if allocs > budget {
		t.Errorf("relaxed replay of %d events allocated %.0f times, want <= %d (0 allocs/request)",
			len(events), allocs, budget)
	}
}
