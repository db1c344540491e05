package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/statecodec"
	"divscrape/internal/workload"
)

// decisionBytes serialises one decision exactly (bit-level scores and
// reasons included), so equivalence checks compare byte streams.
func decisionBytes(buf *bytes.Buffer, d Decision) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], d.Req.Seq)
	buf.Write(tmp[:])
	for i := range d.Verdicts {
		v := &d.Verdicts[i]
		if v.Alert {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Score))
		buf.Write(tmp[:])
		buf.WriteString(v.Reasons.Join(","))
		buf.WriteByte(';')
	}
}

// runCollect streams events[from:to] through p and returns the decision
// stream as bytes.
func runCollect(t *testing.T, p *Pipeline, events []workload.Event, from, to int) []byte {
	t.Helper()
	return collectBySeq(t, p, sourceFrom(events[from:to]))
}

// collectBySeq streams src through p and returns every decision's bytes
// in sequence-number order: the stream order in Sequential mode, and the
// same bytes in ShardedRelaxed mode whenever each request's verdicts
// match, whatever the cross-client interleaving was.
func collectBySeq(t *testing.T, p *Pipeline, src EntrySource) []byte {
	t.Helper()
	type rec struct {
		seq uint64
		b   []byte
	}
	var (
		mu   sync.Mutex
		recs []rec
	)
	err := p.Run(context.Background(), src, func(d Decision) error {
		var buf bytes.Buffer
		decisionBytes(&buf, d)
		mu.Lock()
		recs = append(recs, rec{d.Req.Seq, buf.Bytes()})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	var out bytes.Buffer
	for _, r := range recs {
		out.Write(r.b)
	}
	return out.Bytes()
}

// checkpoint frames p's state through the container codec (round-tripping
// through Encode/Decode, as a process restart would).
func checkpoint(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	w := statecodec.NewWriter()
	if err := p.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	var f bytes.Buffer
	if err := statecodec.Encode(&f, w); err != nil {
		t.Fatal(err)
	}
	return f.Bytes()
}

func resume(t *testing.T, p *Pipeline, frame []byte) {
	t.Helper()
	r, err := statecodec.Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ResumeFrom(r); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeEquivalenceLargeStream is the durable state plane's
// headline proof: stop a replay at event k, checkpoint, restore into a
// fresh pipeline — of the same or a different topology — and the decision
// stream over the remaining ≥25k events is byte-identical to a run that
// was never interrupted, over a ≥50k-event stream.
func TestCheckpointResumeEquivalenceLargeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	events := generate(t, 6)
	if len(events) < 50000 {
		t.Fatalf("stream too small for the equivalence bar: %d events", len(events))
	}
	k := len(events) / 2

	// The uninterrupted reference, split into head/tail byte streams.
	ref := newPipe(t, Sequential)
	refHead := runCollect(t, ref, events, 0, k)
	refTail := runCollect(t, ref, events, k, len(events))

	build := func(mode Mode, shards int) *Pipeline {
		p, err := New(Config{
			Factories:  pairFactories(),
			Reputation: iprep.BuildFeed(),
			Mode:       mode,
			Shards:     shards,
			Buffer:     64,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name       string
		head, tail *Pipeline
	}{
		{"seq→seq", build(Sequential, 0), build(Sequential, 0)},
		{"seq→shard4", build(Sequential, 0), build(ShardedRelaxed, 4)},
		{"shard3→seq", build(ShardedRelaxed, 3), build(Sequential, 0)},
		{"shard3→shard8", build(ShardedRelaxed, 3), build(ShardedRelaxed, 8)},
		{"shard1→shard2", build(ShardedRelaxed, 1), build(ShardedRelaxed, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runCollect(t, tc.head, events, 0, k); !bytes.Equal(got, refHead) {
				t.Fatal("head run diverged before the checkpoint")
			}
			frame := checkpoint(t, tc.head)
			resume(t, tc.tail, frame)
			got := runCollect(t, tc.tail, events, k, len(events))
			if !bytes.Equal(got, refTail) {
				t.Fatalf("decision stream after resume differs from uninterrupted run (%d vs %d bytes)", len(got), len(refTail))
			}
		})
	}
}

// TestCheckpointBytesTopologyIndependent: the same traffic prefix
// checkpoints to identical bytes whatever topology processed it — the
// determinism guarantee that makes snapshots diffable across deployments.
func TestCheckpointBytesTopologyIndependent(t *testing.T) {
	events := generate(t, 2)
	k := len(events) * 3 / 4

	var frames [][]byte
	for _, cfg := range []struct {
		mode   Mode
		shards int
	}{{Sequential, 0}, {ShardedRelaxed, 2}, {ShardedRelaxed, 7}} {
		p, err := New(Config{
			Factories:  pairFactories(),
			Reputation: iprep.BuildFeed(),
			Mode:       cfg.mode,
			Shards:     cfg.shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		runCollect(t, p, events, 0, k)
		frames = append(frames, checkpoint(t, p))
	}
	for i := 1; i < len(frames); i++ {
		if !bytes.Equal(frames[0], frames[i]) {
			t.Fatalf("checkpoint %d differs from sequential checkpoint (%d vs %d bytes)",
				i, len(frames[i]), len(frames[0]))
		}
	}
}

// TestResumePreservesSequenceNumbers: Decision.Req.Seq continues from k,
// so label sidecars indexed by sequence stay aligned across a restart.
func TestResumePreservesSequenceNumbers(t *testing.T) {
	events := generate(t, 1)
	k := len(events) / 3

	head := newPipe(t, Sequential)
	runCollect(t, head, events, 0, k)
	frame := checkpoint(t, head)

	tail := newPipe(t, ShardedRelaxed)
	resume(t, tail, frame)
	var (
		mu   sync.Mutex
		seqs []uint64
	)
	err := tail.Run(context.Background(), sourceFrom(events[k:]), func(d Decision) error {
		mu.Lock()
		seqs = append(seqs, d.Req.Seq)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, seq := range seqs {
		if want := uint64(k + i); seq != want {
			t.Fatalf("seq %d, want %d", seq, want)
		}
	}
	if len(seqs) != len(events)-k {
		t.Fatalf("%d decisions after resume, want %d", len(seqs), len(events)-k)
	}
}

// TestResumeRejectsMismatchedPipeline: a checkpoint restores only into a
// pipeline with the same detector roles.
func TestResumeRejectsMismatchedPipeline(t *testing.T) {
	events := generate(t, 1)
	head := newPipe(t, Sequential)
	runCollect(t, head, events, 0, len(events)/4)
	frame := checkpoint(t, head)

	// A pipeline with only one of the two detectors must refuse.
	p, err := New(Config{
		Factories:  pairFactories()[:1],
		Reputation: iprep.BuildFeed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := statecodec.Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ResumeFrom(r); err == nil {
		t.Fatal("detector-count mismatch accepted")
	}

	// Same count, different order must refuse on the name check.
	f := pairFactories()
	p2, err := New(Config{
		Factories:  []detector.Factory{f[1], f[0]},
		Reputation: iprep.BuildFeed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := statecodec.Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.ResumeFrom(r2); !errors.Is(err, statecodec.ErrCorrupt) {
		t.Fatalf("detector-order mismatch: err = %v", err)
	}
}

// TestResumeFromCorruptCheckpointLeavesCleanPipeline: decode failures
// must reset, not wedge, the pipeline.
func TestResumeFromCorruptCheckpointLeavesCleanPipeline(t *testing.T) {
	events := generate(t, 1)
	head := newPipe(t, Sequential)
	runCollect(t, head, events, 0, len(events)/2)

	w := statecodec.NewWriter()
	if err := head.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	payload := w.Bytes()

	for cut := 0; cut < len(payload); cut += len(payload)/64 + 1 {
		p := newPipe(t, ShardedRelaxed)
		if err := p.ResumeFrom(statecodec.NewReader(payload[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		// The pipeline must still run cleanly from scratch.
		if got := runCollect(t, p, events, 0, 100); len(got) == 0 {
			t.Fatal("pipeline unusable after failed resume")
		}
	}
}
