package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sentinel"
	"divscrape/internal/workload"
)

// generate produces a small in-memory event stream shared by the tests.
func generate(t testing.TB, hours int) []workload.Event {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Seed:     7,
		Duration: time.Duration(hours) * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events generated")
	}
	return events
}

func sourceFrom(events []workload.Event) EntrySource {
	i := 0
	return func() (logfmt.Entry, error) {
		if i >= len(events) {
			return logfmt.Entry{}, io.EOF
		}
		e := events[i].Entry
		i++
		return e, nil
	}
}

// pairFactories builds the calibrated sentinel+arcane factory list.
func pairFactories() []detector.Factory {
	return []detector.Factory{
		func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) },
		func() (detector.Detector, error) { return arcane.New(arcane.Config{}) },
	}
}

func newPipe(t testing.TB, mode Mode) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Factories:  pairFactories(),
		Reputation: iprep.BuildFeed(),
		Mode:       mode,
		Shards:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no detectors accepted")
	}
	if _, err := New(Config{Detectors: []detector.Detector{nil}}); err == nil {
		t.Error("nil detector accepted")
	}
	sen, err := sentinel.New(sentinel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Detectors: []detector.Detector{sen}, Mode: Mode(42)}); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := New(Config{Detectors: []detector.Detector{sen}, Mode: ShardedRelaxed}); err == nil {
		t.Error("ShardedRelaxed without factories accepted")
	}
}

func TestRunReaderSkipsMalformed(t *testing.T) {
	events := generate(t, 1)
	var sb strings.Builder
	w := logfmt.NewWriter(&sb)
	for i := range events {
		if err := w.Write(&events[i].Entry); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			sb.WriteString("THIS LINE IS GARBAGE\n")
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	p := newPipe(t, Sequential)
	var n int
	err := p.RunReader(context.Background(), strings.NewReader(sb.String()), logfmt.Skip,
		func(Decision) error {
			n++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Errorf("decisions = %d, want %d (garbage skipped)", n, len(events))
	}

	// Strict policy surfaces the error instead.
	p2 := newPipe(t, Sequential)
	err = p2.RunReader(context.Background(), strings.NewReader(sb.String()), logfmt.Strict,
		func(Decision) error { return nil })
	if err == nil {
		t.Error("strict policy ignored the corrupt line")
	}
}

func TestSinkErrorStopsRun(t *testing.T) {
	events := generate(t, 1)
	boom := errors.New("boom")
	p := newPipe(t, Sequential)
	var n int
	err := p.Run(context.Background(), sourceFrom(events), func(Decision) error {
		n++
		if n == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want boom", err)
	}
	if n != 50 {
		t.Errorf("sink called %d times, want 50", n)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	bad := errors.New("disk on fire")
	p := newPipe(t, Sequential)
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

func TestContextCancellation(t *testing.T) {
	events := generate(t, 2)
	p := newPipe(t, Sequential)
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	err := p.Run(ctx, sourceFrom(events), func(Decision) error {
		n++
		if n == 100 {
			cancel()
		}
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n > len(events)/2 {
		t.Errorf("processed %d of %d after cancel", n, len(events))
	}
}

func TestResetDetectorsMakesRunsIndependent(t *testing.T) {
	events := generate(t, 1)
	p := newPipe(t, Sequential)
	countAlerts := func() int {
		alerts := 0
		err := p.Run(context.Background(), sourceFrom(events), func(d Decision) error {
			if d.Verdicts[0].Alert || d.Verdicts[1].Alert {
				alerts++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return alerts
	}
	first := countAlerts()
	p.ResetDetectors()
	second := countAlerts()
	if first != second {
		t.Errorf("runs differ after reset: %d vs %d", first, second)
	}
}

func TestDetectors(t *testing.T) {
	p := newPipe(t, Sequential)
	names := p.Detectors()
	if len(names) != 2 || names[0] != "sentinel" || names[1] != "arcane" {
		t.Errorf("Detectors() = %v", names)
	}
}

// stallDetector blocks inside Inspect until released; used to verify the
// relaxed pipeline respects cancellation while a shard is busy —
// without any test-side sleeping, the stall and its release are explicit
// channel handshakes.
type stallDetector struct {
	stalled chan struct{} // closed once Inspect is blocking
	release chan struct{} // closing it unblocks every Inspect
	once    sync.Once
}

func (s *stallDetector) Name() string { return "stall" }
func (s *stallDetector) Reset()       {}
func (s *stallDetector) Inspect(*detector.Request) detector.Verdict {
	s.once.Do(func() { close(s.stalled) })
	<-s.release
	return detector.Verdict{}
}
func (s *stallDetector) InspectInto(req *detector.Request, out *detector.Verdict) {
	*out = s.Inspect(req)
}

func TestCancellationWithSlowStage(t *testing.T) {
	stall := &stallDetector{stalled: make(chan struct{}), release: make(chan struct{})}
	p, err := New(Config{
		Factories: []detector.Factory{func() (detector.Detector, error) { return stall, nil }},
		Mode:      ShardedRelaxed,
		Shards:    1,
		Buffer:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	calls := 0
	base := time.Date(2018, 3, 11, 6, 0, 0, 0, time.UTC)
	src := func() (logfmt.Entry, error) {
		calls++
		return logfmt.Entry{
			RemoteAddr: "10.0.0.1", Time: base.Add(time.Duration(calls) * time.Second),
			Method: "GET", Path: fmt.Sprintf("/p/%d", calls), Proto: "HTTP/1.1",
			Status: 200, Bytes: 1, Referer: "-", UserAgent: "x",
		}, nil
	}
	done := make(chan error, 1)
	go func() {
		done <- p.Run(ctx, src, func(Decision) error { return nil })
	}()
	// Wait until the shard is provably mid-Inspect, let the deadline
	// expire while it is blocked (the producer parks on the full ring),
	// then release it; the pipeline must unwind and surface the deadline.
	<-stall.stalled
	<-ctx.Done()
	close(stall.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not terminate after context deadline")
	}
}

func BenchmarkPipelineSequential(b *testing.B) {
	benchmarkPipeline(b, Sequential)
}

func BenchmarkPipelineRelaxed(b *testing.B) {
	benchmarkPipeline(b, ShardedRelaxed)
}

func benchmarkPipeline(b *testing.B, mode Mode) {
	events := generate(b, 2)
	// SetBytes reports the Combined-Log-Format size of the stream, so the
	// MB/s column means "access log bytes per second" — the unit a log
	// pipeline is sized in — rather than an event count mislabelled as
	// bytes.
	var logBytes int64
	var line []byte
	for i := range events {
		line = logfmt.AppendCombined(line[:0], &events[i].Entry)
		logBytes += int64(len(line)) + 1 // newline
	}
	p := newPipe(b, mode)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ResetDetectors()
		var err error
		if mode == ShardedRelaxed {
			sinks := make([]Sink, p.Shards())
			for s := range sinks {
				sinks[s] = func(Decision) error { return nil }
			}
			err = p.RunRelaxed(context.Background(), sourceFrom(events), sinks)
		} else {
			err = p.Run(context.Background(), sourceFrom(events), func(Decision) error { return nil })
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(logBytes)
}

// The relaxed pipeline's per-shard-sink entry point must not leak
// goroutines on any exit path: normal completion, sink error, or
// cancellation. (TestRelaxedNoGoroutineLeaks covers the shared-sink Run
// path.)
func TestNoGoroutineLeaks(t *testing.T) {
	events := generate(t, 1)
	before := runtime.NumGoroutine()

	sinksOf := func(p *Pipeline, sink Sink) []Sink {
		sinks := make([]Sink, p.Shards())
		for i := range sinks {
			sinks[i] = sink
		}
		return sinks
	}
	for round := 0; round < 3; round++ {
		// Normal completion.
		p := newPipe(t, ShardedRelaxed)
		if err := p.RunRelaxed(context.Background(), sourceFrom(events), sinksOf(p, func(Decision) error { return nil })); err != nil {
			t.Fatal(err)
		}
		// Sink error.
		p2 := newPipe(t, ShardedRelaxed)
		boom := errors.New("x")
		_ = p2.RunRelaxed(context.Background(), sourceFrom(events), sinksOf(p2, func(Decision) error { return boom }))
		// Cancellation.
		ctx, cancel := context.WithCancel(context.Background())
		p3 := newPipe(t, ShardedRelaxed)
		var n atomic.Uint64
		_ = p3.RunRelaxed(ctx, sourceFrom(events), sinksOf(p3, func(Decision) error {
			if n.Add(1) == 10 {
				cancel()
			}
			return nil
		}))
		cancel()
	}

	// Run returns only after wg.Wait, so worker goroutines are already
	// past their last real work; yielding the scheduler a bounded number
	// of times is enough for their exits to be observed — no wall-clock
	// sleep needed.
	for i := 0; i < 100_000; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
	}
	t.Errorf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}
