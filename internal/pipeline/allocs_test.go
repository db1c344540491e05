package pipeline

import (
	"context"
	"testing"
)

// The full sequential decision path — enrich, both detectors, verdict
// recording, sink hand-off — must be allocation-free per request in
// steady state: once caches are warm and session state exists, replaying
// the stream performs only a fixed handful of per-run setup allocations
// no matter how many requests flow through. This is the package-level
// counterpart of the per-component alloc tests in internal/detector,
// internal/sentinel and internal/arcane.
func TestSequentialDecisionPathZeroAllocsSteadyState(t *testing.T) {
	events := generate(t, 2)
	p := newPipe(t, Sequential)

	run := func() {
		if err := p.Run(context.Background(), sourceFrom(events), func(Decision) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: parse caches fill, per-client sessions and their state
	// allocate once. Detector state is deliberately NOT reset afterwards —
	// steady state means the same clients keep flowing.
	run()

	allocs := testing.AllocsPerRun(1, run)
	// A full replay re-touches every session without allocating; only a
	// fixed, stream-length-independent setup cost remains (source closure,
	// context check, pool jitter). With tens of thousands of events, a
	// budget this small proves the per-request cost is zero.
	const budget = 32
	if allocs > budget {
		t.Errorf("sequential replay of %d events allocated %.0f times, want <= %d (0 allocs/request)",
			len(events), allocs, budget)
	}
}
