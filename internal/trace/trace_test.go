package trace

import (
	"strings"
	"testing"
	"time"
)

// A manual clock: each call advances by step, so span durations are
// exact and assertions on histogram sums are deterministic.
func stepClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ts := tr.Now()
	if !ts.IsZero() {
		t.Error("nil tracer Now() != zero time")
	}
	ts = tr.Lap(StageParse, ts)
	ts = tr.LapDetector(0, ts)
	_ = ts
	tr.RingDepth(0, 5)
	if tr.StageStats() != nil {
		t.Error("nil tracer StageStats() != nil")
	}
	if tr.Registry() != nil {
		t.Error("nil tracer Registry() != nil")
	}
	if tr.Recorder() != nil {
		t.Error("nil tracer Recorder() != nil")
	}
}

// The disabled plane's contract: the span points compiled into the hot
// paths must cost zero allocations when the tracer is nil.
func TestNilTracerSpanPathAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		ts := tr.Now()
		ts = tr.Lap(StageParse, ts)
		ts = tr.Lap(StageEnrich, ts)
		ts = tr.LapDetector(0, ts)
		ts = tr.LapDetector(1, ts)
		tr.Lap(StageSink, ts)
		tr.RingDepth(0, 1)
		if tr.Recorder().Sample() != SampleNone {
			t.Fatal("nil recorder sampled")
		}
	})
	if allocs != 0 {
		t.Errorf("nil-tracer span path allocates %.1f/op, want 0", allocs)
	}
}

func TestLapRecordsSpans(t *testing.T) {
	start := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	tr := New(Config{
		Detectors: []string{"sentinel", "arcane"},
		Now:       stepClock(start, time.Microsecond),
	})
	ts := tr.Now()
	ts = tr.Lap(StageParse, ts)
	ts = tr.LapDetector(0, ts)
	ts = tr.LapDetector(1, ts)
	tr.Lap(StageSink, ts)

	want := map[string]struct {
		count uint64
		sum   float64
	}{
		"parse":           {1, 1e-6},
		"detect-sentinel": {1, 1e-6},
		"detect-arcane":   {1, 1e-6},
		"sink":            {1, 1e-6},
		"enrich":          {0, 0},
		"ensemble":        {0, 0},
	}
	for _, st := range tr.StageStats() {
		w, ok := want[st.Name()]
		if !ok {
			t.Errorf("unexpected stage %q", st.Name())
			continue
		}
		if st.Count != w.count {
			t.Errorf("%s count = %d, want %d", st.Name(), st.Count, w.count)
		}
		if diff := st.Sum - w.sum; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s sum = %g, want %g", st.Name(), st.Sum, w.sum)
		}
		delete(want, st.Name())
	}
	if len(want) != 0 {
		t.Errorf("stages missing from StageStats: %v", want)
	}
}

// A zero prev anchors without recording — the idiom that lets a span
// chain start mid-path without a spurious from-the-epoch observation.
func TestLapZeroPrevRecordsNothing(t *testing.T) {
	tr := New(Config{Now: stepClock(time.Unix(0, 0), time.Millisecond)})
	tr.Lap(StageParse, time.Time{})
	for _, st := range tr.StageStats() {
		if st.Count != 0 {
			t.Errorf("stage %s recorded %d spans from a zero prev", st.Name(), st.Count)
		}
	}
}

func TestShardInstruments(t *testing.T) {
	tr := New(Config{Shards: 2})
	tr.RingDepth(0, 5)
	tr.RingDepth(1, 2)
	// Out-of-range shards must be ignored, not panic.
	tr.RingDepth(9, 1)
	page := string(tr.Registry().AppendPrometheus(nil))
	for _, want := range []string{
		`divscrape_shard_ring_depth{shard="0"} 5`,
		`divscrape_shard_ring_depth{shard="1"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("registry page missing %q:\n%s", want, page)
		}
	}
}

// A sharded tracer exposes the ring occupancy family and nothing else
// per shard: every shard instrument on the page is one the relaxed
// pipeline actually updates, so none sits frozen at zero.
func TestRelaxedTracerInstruments(t *testing.T) {
	tr := New(Config{Shards: 3})
	page := string(tr.Registry().AppendPrometheus(nil))
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "divscrape_shard_") && !strings.HasPrefix(line, "divscrape_shard_ring_depth{") {
			t.Errorf("sharded tracer exposes an unexpected shard instrument: %q", line)
		}
	}
	if n := strings.Count(page, "divscrape_shard_ring_depth{"); n != 3 {
		t.Errorf("%d ring gauges registered, want one per shard (3):\n%s", n, page)
	}
}

// Unsharded tracers (httpguard, sequential replays) must not expose
// shard gauges, and the ring setter must degrade to a no-op.
func TestUnshardedTracerHasNoShardInstruments(t *testing.T) {
	tr := New(Config{})
	tr.RingDepth(0, 5)
	page := string(tr.Registry().AppendPrometheus(nil))
	if strings.Contains(page, "divscrape_shard_") {
		t.Errorf("unsharded registry page contains shard instruments:\n%s", page)
	}
}
