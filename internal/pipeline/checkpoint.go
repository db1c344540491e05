package pipeline

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/fnvhash"
	"divscrape/internal/statecodec"
)

// Checkpoint-resume: a pipeline can serialise everything a future
// process needs to continue a replay exactly where this one stopped —
// the enricher's sequence counter and every detector's per-client state
// — and a freshly constructed pipeline can restore it and produce a
// decision stream byte-identical to the run that was never interrupted.
//
// The snapshot is topology-independent: detector state is written in the
// canonical merged form (see detector.ShardedSnapshotter), with no record
// of the mode or shard count that produced it, so a checkpoint taken by a
// sequential replay resumes into a 16-shard pipeline and vice versa. The
// only requirement is that both sides are built from the same detector
// configuration, in the same order.

// tagPipeline opens a pipeline checkpoint block.
const tagPipeline uint16 = 0x5043

// Checkpoint serialises the pipeline's full detection state into w. The
// pipeline must be idle (between Run calls); every registered detector
// must implement detector.Snapshotter — in ShardedRelaxed mode,
// detector.ShardedSnapshotter. Checkpoint settles pending idle expiry
// across shards (a decision-neutral operation) but otherwise leaves the
// pipeline ready to continue.
func (p *Pipeline) Checkpoint(w *statecodec.Writer) error {
	w.Tag(tagPipeline)
	p.enricher.SnapshotInto(w)
	roles := p.detectorRoles()
	w.Uint16(uint16(len(roles)))
	for j, role := range roles {
		w.String(role[0].Name())
		ss, ok := role[0].(detector.ShardedSnapshotter)
		if !ok {
			if len(role) == 1 {
				s, ok := role[0].(detector.Snapshotter)
				if !ok {
					return fmt.Errorf("pipeline: detector %d (%s) does not support snapshots", j, role[0].Name())
				}
				s.SnapshotInto(w)
				continue
			}
			return fmt.Errorf("pipeline: detector %d (%s) does not support sharded snapshots", j, role[0].Name())
		}
		if err := ss.SnapshotShardsInto(w, role); err != nil {
			return fmt.Errorf("pipeline: checkpoint detector %d (%s): %w", j, role[0].Name(), err)
		}
	}
	return w.Err()
}

// ResumeFrom restores a checkpoint into this pipeline, replacing all
// detector and enricher state. The pipeline must be idle and built with
// the same detectors (same names, same order, same configuration) as the
// one that wrote the checkpoint; the shard count may differ freely. On
// error the pipeline's detectors are left reset, never half-restored.
func (p *Pipeline) ResumeFrom(r *statecodec.Reader) error {
	if err := p.resumeFrom(r); err != nil {
		p.ResetDetectors()
		return err
	}
	return nil
}

func (p *Pipeline) resumeFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagPipeline); err != nil {
		return err
	}
	if err := p.enricher.RestoreFrom(r); err != nil {
		return err
	}
	roles := p.detectorRoles()
	if got := int(r.Uint16()); got != len(roles) {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%w: checkpoint has %d detectors, pipeline has %d",
			statecodec.ErrCorrupt, got, len(roles))
	}
	shards := p.Shards()
	part := func(ip uint32) int { return fnvhash.Shard(ip, shards) }
	for j, role := range roles {
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if name != role[0].Name() {
			return fmt.Errorf("%w: checkpoint detector %d is %q, pipeline has %q",
				statecodec.ErrCorrupt, j, name, role[0].Name())
		}
		ss, ok := role[0].(detector.ShardedSnapshotter)
		if !ok {
			if len(role) == 1 {
				s, sok := role[0].(detector.Snapshotter)
				if !sok {
					return fmt.Errorf("pipeline: detector %d (%s) does not support snapshots", j, name)
				}
				if err := s.RestoreFrom(r); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("pipeline: detector %d (%s) does not support sharded snapshots", j, name)
		}
		if err := ss.RestoreShards(r, role, part); err != nil {
			return err
		}
	}
	return r.Err()
}

// detectorRoles groups the pipeline's detector instances by role: one
// slice per registered detector, holding that detector's instance on
// every shard (a single instance in Sequential mode).
func (p *Pipeline) detectorRoles() [][]detector.Detector {
	if p.shardDets != nil {
		nd := len(p.shardDets[0])
		roles := make([][]detector.Detector, nd)
		for j := 0; j < nd; j++ {
			role := make([]detector.Detector, len(p.shardDets))
			for i := range p.shardDets {
				role[i] = p.shardDets[i][j]
			}
			roles[j] = role
		}
		return roles
	}
	roles := make([][]detector.Detector, len(p.cfg.Detectors))
	for j, d := range p.cfg.Detectors {
		roles[j] = []detector.Detector{d}
	}
	return roles
}
