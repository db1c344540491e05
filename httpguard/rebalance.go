package httpguard

import (
	"fmt"

	"divscrape/internal/detector"
	"divscrape/internal/faultinject"
	"divscrape/internal/fnvhash"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
)

// Fault points the chaos suite arms around the rebalance swap: an
// injected snapshot or restore failure must leave the guard serving on
// its old topology with the topology lock released — never a wedged
// RWMutex or a half-swapped shard set.
var (
	fiRebalanceSnapshot = faultinject.At("httpguard.rebalance.snapshot")
	fiRebalanceRestore  = faultinject.At("httpguard.rebalance.restore")
)

// Live shard rebalancing and guard-level snapshot/restore. Both are built
// on the same mechanism: every stateful component of the shard set — the
// commercial and behavioural detectors' session stores and the mitigation
// engines' client ladders — serialises to a canonical, partition-agnostic
// form (detector.ShardedSnapshotter / mitigate.SnapshotMerged), and that
// form redistributes across any shard count by rehashing each client's
// key. Rebalance does snapshot → rehash → restore entirely in memory
// under the topology lock; Snapshot/Restore expose the same bytes through
// the state codec so a live guard survives a process restart.

// tagGuard opens a guard state block in a snapshot.
const tagGuard uint16 = 0x4755

// Rebalance re-partitions the guard's per-client detection and
// enforcement state across newShards shards, without dropping a request:
// in-flight requests finish on the old topology, requests arriving during
// the swap wait on the topology lock, and every client's sessions,
// suspicion scores and ladder positions move to their new home shard.
// Decisions are unaffected — a client's state follows it, so the action
// stream is identical to a guard that ran with newShards all along.
//
// The swap holds the guard's topology lock exclusively for the duration
// of one full state serialisation and restore; with hundreds of
// thousands of live clients this is milliseconds, the price of turning
// the shard count from a boot-time constant into a runtime tunable.
func (g *Guard) Rebalance(newShards int) error {
	if newShards <= 0 {
		return fmt.Errorf("httpguard: invalid shard count %d", newShards)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if newShards == len(g.shards) {
		return nil
	}

	next := make([]*guardShard, newShards)
	for i := range next {
		shard, err := g.newShard()
		if err != nil {
			return err
		}
		shard.index = i
		next[i] = shard
	}

	w := statecodec.NewWriter()
	g.snapshotShardsLocked(w)
	if err := fiRebalanceSnapshot.Fire(); err != nil {
		w.Fail(err)
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("httpguard: rebalance snapshot: %w", err)
	}
	if err := fiRebalanceRestore.Fire(); err != nil {
		return fmt.Errorf("httpguard: rebalance restore: %w", err)
	}
	if err := restoreShards(statecodec.NewReader(w.Bytes()), next, newShards, g.cfg.EnableTrajectory); err != nil {
		return fmt.Errorf("httpguard: rebalance restore: %w", err)
	}

	// The cluster plane's fail-closed freeze is guard-level state; the
	// rebuilt engines start thawed and must inherit it.
	if g.escFrozen.Load() {
		for _, s := range next {
			s.engine.SetEscalationFrozen(true)
		}
	}
	g.shards = next
	return nil
}

// SnapshotInto serialises the guard's full detection and enforcement
// state (all shards merged, counters included) in the canonical
// partition-agnostic form. The topology lock is held exclusively, so the
// snapshot is a consistent cut even on a guard serving live traffic.
func (g *Guard) SnapshotInto(w *statecodec.Writer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.snapshotShardsLocked(w)
}

// RestoreFrom rebuilds the guard's state from a snapshot, distributing
// clients across the guard's current shard count — which need not match
// the count the snapshot was taken at. The guard's configuration
// (detector tuning, mitigation policy) must match the snapshotting
// guard's. On failure the shards are left fresh, never half-restored.
func (g *Guard) RestoreFrom(r *statecodec.Reader) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := make([]*guardShard, len(g.shards))
	for i := range next {
		shard, err := g.newShard()
		if err != nil {
			return err
		}
		shard.index = i
		next[i] = shard
	}
	if err := restoreShards(r, next, len(next), g.cfg.EnableTrajectory); err != nil {
		return err
	}
	if g.escFrozen.Load() {
		for _, s := range next {
			s.engine.SetEscalationFrozen(true)
		}
	}
	g.shards = next
	return nil
}

// snapshotShardsLocked writes the fleet counter totals plus the merged
// detector and engine state. Caller holds g.mu exclusively. The guard's
// lock-free action counters are serialised in their own right — they are
// not derivable from the engines' tallies, because challenge-flow
// requests count as allowed without ever reaching an engine.
func (g *Guard) snapshotShardsLocked(w *statecodec.Writer) {
	w.Tag(tagGuard)
	var total, alerted, passed, allowed, tarpitted, challenged, blocked uint64
	sens := make([]detector.Detector, len(g.shards))
	arcs := make([]detector.Detector, len(g.shards))
	engines := make([]*mitigate.Engine, len(g.shards))
	for i, s := range g.shards {
		total += s.total.Load()
		alerted += s.alerted.Load()
		passed += s.passed.Load()
		allowed += s.allowed.Load()
		tarpitted += s.tarpitted.Load()
		challenged += s.challenged.Load()
		blocked += s.blocked.Load()
		sens[i] = s.sen
		arcs[i] = s.arc
		engines[i] = s.engine
	}
	for _, c := range []uint64{total, alerted, passed, allowed, tarpitted, challenged, blocked} {
		w.Uint64(c)
	}
	if err := g.shards[0].sen.SnapshotShardsInto(w, sens); err != nil {
		w.Fail(err)
		return
	}
	if err := g.shards[0].arc.SnapshotShardsInto(w, arcs); err != nil {
		w.Fail(err)
		return
	}
	// The trajectory block exists only on trajectory-enabled guards, so a
	// pair guard's snapshots keep their original layout; restore refuses a
	// layout mismatch via the detectors' own tags.
	if g.cfg.EnableTrajectory {
		trajs := make([]detector.Detector, len(g.shards))
		for i, s := range g.shards {
			trajs[i] = s.traj
		}
		if err := g.shards[0].traj.SnapshotShardsInto(w, trajs); err != nil {
			w.Fail(err)
			return
		}
	}
	mitigate.SnapshotMerged(w, engines)
}

// restoreShards distributes a guard snapshot across a fresh shard set.
// withTraj must match the layout the snapshot was written with — i.e.
// the snapshotting guard's EnableTrajectory.
func restoreShards(r *statecodec.Reader, shards []*guardShard, n int, withTraj bool) error {
	if err := r.Expect(tagGuard); err != nil {
		return err
	}
	var counters [7]uint64
	for i := range counters {
		counters[i] = r.Uint64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	part := func(ip uint32) int { return fnvhash.Shard(ip, n) }
	sens := make([]detector.Detector, len(shards))
	arcs := make([]detector.Detector, len(shards))
	engines := make([]*mitigate.Engine, len(shards))
	for i, s := range shards {
		sens[i] = s.sen
		arcs[i] = s.arc
		engines[i] = s.engine
	}
	if err := shards[0].sen.RestoreShards(r, sens, part); err != nil {
		return err
	}
	if err := shards[0].arc.RestoreShards(r, arcs, part); err != nil {
		return err
	}
	if withTraj {
		trajs := make([]detector.Detector, len(shards))
		for i, s := range shards {
			trajs[i] = s.traj
		}
		if err := shards[0].traj.RestoreShards(r, trajs, part); err != nil {
			return err
		}
	}
	// Engines key clients by their derived address string; partition by
	// parsing it back to the numeric form enrichment produced, so a
	// client's engine state lands on the shard its requests route to.
	err := mitigate.RestorePartitioned(r, engines, func(key string) int {
		return iprep.ShardOf(key, n)
	})
	if err != nil {
		return err
	}
	// Fleet counter totals live on the first shard of the restored set.
	s0 := shards[0]
	s0.total.Store(counters[0])
	s0.alerted.Store(counters[1])
	s0.passed.Store(counters[2])
	s0.allowed.Store(counters[3])
	s0.tarpitted.Store(counters[4])
	s0.challenged.Store(counters[5])
	s0.blocked.Store(counters[6])
	return nil
}
