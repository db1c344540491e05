package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
)

// Cluster plane for follow mode: -cluster-listen turns one follower into
// a member of a replicated detection cluster. Each node keeps judging its
// own log locally and ships periodic state deltas — mitigation ladder
// digests and reputation-overlay entries — to its peers over HTTP, so a
// client split across nodes (or re-routed after a node failure) is met
// with the enforcement rung it already earned elsewhere. Detector session
// stores stay node-local: they are confined to the pipeline's goroutines and
// rebuild organically from traffic (the embedded httpguard deployment
// shape ships session digests too; see httpguard/cluster.go).

// engineBackend holds the -mitigate response state — one ladder engine
// per pipeline shard, plus the reputation overlay — and adapts it to the
// cluster replication contract. Engines are single-threaded by design, so
// each sits behind its own lock: the shard's sink takes it around every
// engine call, and so does every access from the cluster plane (peer
// merges arrive on HTTP serving goroutines, outbound digests are
// collected on the tick goroutine). Clients hash to engines with the
// pipeline's partition rule, so a replicated digest lands on the engine
// that judges that client's requests. The overlay is copy-on-write
// behind an atomic pointer and needs no locking.
type engineBackend struct {
	shards []engineShard
	rep    *iprep.DB
}

// engineShard is one pipeline shard's ladder engine and its lock.
type engineShard struct {
	mu     sync.Mutex
	engine *mitigate.Engine
}

// EvictBefore lets the shard's windowed sweeper drive its engine through
// the lock the cluster plane uses, keeping eviction serialised with peer
// merges.
func (s *engineShard) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.EvictBefore(cutoff)
}

func newEngineBackend(engines []*mitigate.Engine, rep *iprep.DB) *engineBackend {
	b := &engineBackend{shards: make([]engineShard, len(engines)), rep: rep}
	for i, e := range engines {
		b.shards[i].engine = e
	}
	return b
}

// lockAll takes every shard's lock and returns the engines, for the
// whole-set operations (snapshot, restore, counts); unlockAll releases
// them.
func (b *engineBackend) lockAll() []*mitigate.Engine {
	engines := make([]*mitigate.Engine, len(b.shards))
	for i := range b.shards {
		b.shards[i].mu.Lock()
		engines[i] = b.shards[i].engine
	}
	return engines
}

func (b *engineBackend) unlockAll() {
	for i := range b.shards {
		b.shards[i].mu.Unlock()
	}
}

// snapshotInto writes the engines' union as one canonical snapshot, so
// state files carry no trace of the shard count that wrote them.
func (b *engineBackend) snapshotInto(w *statecodec.Writer) {
	mitigate.SnapshotMerged(w, b.lockAll())
	b.unlockAll()
}

// restoreFrom distributes a canonical snapshot across the engines by the
// pipeline's partition rule.
func (b *engineBackend) restoreFrom(r *statecodec.Reader) error {
	n := len(b.shards)
	err := mitigate.RestorePartitioned(r, b.lockAll(), func(key string) int { return iprep.ShardOf(key, n) })
	b.unlockAll()
	return err
}

// counts sums the engines' lifetime action tallies.
func (b *engineBackend) counts() mitigate.ActionCounts {
	var c mitigate.ActionCounts
	for _, e := range b.lockAll() {
		c.Add(e.Counts())
	}
	b.unlockAll()
	return c
}

func (b *engineBackend) LadderDigestsSince(since time.Time, fn func(mitigate.ClientDigest)) {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		s.engine.DigestsSince(since, fn)
		s.mu.Unlock()
	}
}

func (b *engineBackend) MergeLadderDigest(d mitigate.ClientDigest) bool {
	s := &b.shards[iprep.ShardOf(d.Key, len(b.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.MergeDigest(d)
}

func (b *engineBackend) OverlayEntries(fn func(iprep.TempEntry)) {
	b.rep.TempEntries(fn)
}

func (b *engineBackend) MergeOverlayEntry(e iprep.TempEntry) bool {
	return b.rep.MergeTemporary(e)
}

// SessionDigestsSince is deliberately empty: the CLI's detector session
// stores are confined to the pipeline's goroutines, so this deployment
// shape replicates enforcement state only and lets sessions rebuild from
// traffic after a failover.
func (b *engineBackend) SessionDigestsSince(time.Time, func(cluster.SessionDigest)) {}

func (b *engineBackend) SetEscalationFrozen(frozen bool) {
	for _, e := range b.lockAll() {
		e.SetEscalationFrozen(frozen)
	}
	b.unlockAll()
}

// degradedPolicyOf resolves the -cluster-degraded flag.
func degradedPolicyOf(name string) (cluster.DegradedPolicy, error) {
	switch name {
	case "", "fail-open":
		return cluster.FailOpen, nil
	case "fail-closed":
		return cluster.FailClosed, nil
	default:
		return 0, fmt.Errorf("invalid -cluster-degraded %q (want fail-open or fail-closed)", name)
	}
}

// splitPeers parses the -cluster-peers list, dropping empties and the
// node's own address (listing yourself is a config-templating artefact,
// not an error).
func splitPeers(list, self string) []string {
	var peers []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" && p != self {
			peers = append(peers, p)
		}
	}
	return peers
}

// clusterTickEvery is the wall-clock cadence of the node's Tick loop —
// a quarter of the default delta interval, so failure detection and
// retry deadlines are observed promptly without busy-spinning.
const clusterTickEvery = 250 * time.Millisecond

// clusterSendTimeout is the per-exchange HTTP deadline — half the
// default 1s delta interval, so even a tick that blocks on a
// black-holed peer for the full timeout cannot push the heartbeat
// cadence past what the failure detector expects of this node.
const clusterSendTimeout = 500 * time.Millisecond

// warnWildcardListen flags the cluster-identity footgun: the listen
// string doubles as the node ID stamped into every outbound frame, and
// receivers look that ID up in their own -cluster-peers list. A
// wildcard or empty host (":8001", "0.0.0.0:8001") can never match the
// concrete host:port peers dial, so every frame this node sends would
// be dropped as from-unknown-peer on arrival — with nothing else at
// startup hinting at the misconfiguration.
func warnWildcardListen(listen string, logf func(string, ...any)) {
	host, _, err := net.SplitHostPort(listen)
	if err != nil {
		return // net.Listen will report the malformed address itself
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		logf("cluster: -cluster-listen %q has a wildcard host; the listen string is this node's ID, and peers drop frames from IDs missing from their -cluster-peers — use the concrete address peers dial (host:port)", listen)
	}
}

// clusterRuntime bundles what -cluster-listen starts: the node, the
// delta listener, and the tick loop driving it.
type clusterRuntime struct {
	node *cluster.Node
	srv  *http.Server
	addr net.Addr
	stop chan struct{}
	done chan struct{}
}

// startCluster stands the cluster plane up: a node identified by the
// listen address, an HTTP listener serving peer deltas, and a goroutine
// ticking the node on the wall clock. The listen string doubles as the
// node's identity — peers must name this node by exactly that string in
// their own -cluster-peers.
func startCluster(listen string, peers []string, pol cluster.DegradedPolicy,
	be *engineBackend, rec *trace.Recorder, logf func(string, ...any)) (*clusterRuntime, error) {
	warnWildcardListen(listen, logf)
	node, err := cluster.New(cluster.Config{
		ID:        listen,
		Peers:     peers,
		Backend:   be,
		Transport: cluster.NewHTTPTransport(clusterSendTimeout),
		Degraded:  pol,
		Trace:     rec,
		OnEvent: func(ev cluster.Event) {
			logf("cluster: %s peer=%s %s", ev.Kind, ev.Peer, ev.Detail)
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("cluster listener: %w", err)
	}
	c := &clusterRuntime{
		node: node,
		srv:  &http.Server{Handler: cluster.Handler(node)},
		addr: ln.Addr(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() { _ = c.srv.Serve(ln) }()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(clusterTickEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-tick.C:
				c.node.Tick(now)
			}
		}
	}()
	return c, nil
}

// shutdown stops the tick loop and drains the delta server gracefully:
// an in-flight peer delta gets until the deadline to finish merging, then
// the listener is torn down hard.
func (c *clusterRuntime) shutdown() {
	close(c.stop)
	<-c.done
	shutdownServer(c.srv, debugShutdownTimeout)
}

// debugShutdownTimeout bounds how long exit waits for in-flight HTTP
// requests (a slow metrics scrape, a peer delta mid-merge) to complete.
const debugShutdownTimeout = 5 * time.Second

// shutdownServer drains srv gracefully: the listener closes immediately
// (no new connections), in-flight requests get until the deadline to
// complete, and only then is the server torn down hard.
func shutdownServer(srv *http.Server, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}
