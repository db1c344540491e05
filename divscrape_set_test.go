package divscrape_test

import (
	"bytes"
	"testing"
	"time"

	"divscrape"
)

func setGen(t *testing.T, seed uint64, dur time.Duration) *divscrape.Generator {
	t.Helper()
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: seed, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestTrajectoryNonInterference is the metamorphic guarantee behind the
// third detector: adding trajectory to the set leaves the sentinel and
// arcane verdict streams exactly as they were. Detectors share only the
// enricher, whose outputs do not depend on how many detectors consume
// them, so slot i of the pair run must equal slot i of the triple run on
// every single event.
func TestTrajectoryNonInterference(t *testing.T) {
	pair, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	triple, err := divscrape.NewDetectorSet("sentinel", "arcane", "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	vp := make([]divscrape.Verdict, pair.Len())
	vt := make([]divscrape.Verdict, triple.Len())
	n := 0
	err = setGen(t, 41, 4*time.Hour).Run(func(ev divscrape.Event) error {
		pair.InspectInto(ev.Entry, vp)
		triple.InspectInto(ev.Entry, vt)
		if vp[0] != vt[0] || vp[1] != vt[1] {
			t.Fatalf("event %d: pair verdicts changed under trajectory:\n pair:   %+v %+v\n triple: %+v %+v",
				n, vp[0], vp[1], vt[0], vt[1])
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty run")
	}
}

// TestAnalyzeThreeWaySharded: the three-detector set reports identical
// summaries from the sequential and sharded entry points — the
// same mode-equivalence contract the pair has always had, now covering a
// detector whose state includes a trained model shared across shards.
func TestAnalyzeThreeWaySharded(t *testing.T) {
	names := []string{"sentinel", "arcane", "trajectory"}
	set, err := divscrape.NewDetectorSet(names...)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := divscrape.AnalyzeSet(setGen(t, 42, 4*time.Hour), set)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Detectors) != 3 {
		t.Fatalf("summary holds %d detectors, want 3", len(seq.Detectors))
	}
	if _, ok := seq.ConfusionOf("trajectory"); !ok {
		t.Fatal("summary missing trajectory confusion")
	}
	got, err := divscrape.AnalyzeShardedRelaxedSet(setGen(t, 42, 4*time.Hour), 3, names...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != seq.Total || got.Contingency != seq.Contingency {
		t.Fatalf("sharded summary differs: %+v vs %+v", got, seq)
	}
	for i := range seq.Detectors {
		if got.Detectors[i] != seq.Detectors[i] {
			t.Fatalf("detector %d confusion differs: %+v vs %+v",
				i, got.Detectors[i], seq.Detectors[i])
		}
	}
}

// TestSetSnapshotPairCompatible: a DetectorPair snapshot and a default
// DetectorSet snapshot are the same bytes, and each restores into the
// other — the set generalisation did not fork the state format.
func TestSetSnapshotPairCompatible(t *testing.T) {
	pair, err := divscrape.NewDetectorPair()
	if err != nil {
		t.Fatal(err)
	}
	set, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	err = setGen(t, 43, 90*time.Minute).Run(func(ev divscrape.Event) error {
		pair.Inspect(ev.Entry)
		set.InspectInto(ev.Entry, make([]divscrape.Verdict, set.Len()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fromPair, fromSet bytes.Buffer
	if err := divscrape.Snapshot(&fromPair, pair); err != nil {
		t.Fatal(err)
	}
	if err := divscrape.SnapshotSet(&fromSet, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromPair.Bytes(), fromSet.Bytes()) {
		t.Error("pair and default-set snapshots are not byte-identical")
	}
	if _, err := divscrape.ResumeSet(bytes.NewReader(fromPair.Bytes())); err != nil {
		t.Fatalf("set resume from pair snapshot: %v", err)
	}
	if _, err := divscrape.Resume(bytes.NewReader(fromSet.Bytes())); err != nil {
		t.Fatalf("pair resume from set snapshot: %v", err)
	}
}

// TestUnknownDetectorName: the registry rejects typos with the available
// names in the message.
func TestUnknownDetectorName(t *testing.T) {
	if _, err := divscrape.NewDetectorSet("sentinel", "arcana"); err == nil {
		t.Fatal("unknown detector name accepted")
	}
	if _, err := divscrape.FactoriesFor("nope"); err == nil {
		t.Fatal("unknown factory name accepted")
	}
}
