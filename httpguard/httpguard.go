// Package httpguard deploys the divscrape detector pair as live HTTP
// middleware: every request through the wrapped handler is converted to
// the access-log view the detectors consume, judged in real time, and
// answered with a graduated enforcement action. This is the "operational"
// face of the reproduction: the paper studies the tools as offline log
// analysers, but the products they model run inline, and a downstream
// adopter of this library will want exactly this entry point.
//
// Enforcement is driven by a mitigate.Engine per shard rather than a
// static action switch: the adjudicated verdicts feed a per-client
// suspicion integral that climbs the Allow → Tarpit → Challenge → Block
// ladder and decays back. The legacy static behaviours (Observe, Tag,
// Block) remain available as Config.Action and are implemented as static
// mitigation policies. When the graduated policy is active the guard also
// hosts the challenge flow itself: it serves the challenge script, and a
// POST to the verify endpoint marks the client's challenge solved.
//
// The middleware observes the *response* status via a recording writer,
// so its log view matches what Apache would have written. The detectors
// are single-threaded by design (per-client state machines), so the guard
// partitions traffic by client IP across Config.Shards internal shards,
// each with its own detector pair, enricher, mitigation engine and mutex —
// the same key-partitioning the offline pipeline's ShardedRelaxed mode
// uses. A client's requests always hash to the same shard, so per-client
// detection and enforcement state is exactly what a single serialised
// pair would hold, while unrelated clients no longer contend on one lock. Note the guard's topology is the relaxed one:
// responses leave in whatever order shards finish, stats, tracing and
// eviction are shard-local, and nothing ever merges the streams back
// into arrival order — pipeline.ShardedRelaxed is this deployment shape
// replayed offline, and the facts proven for it (per-client total order,
// order-free aggregate equality) are what make the guard's inline
// judgements equivalent to the paper's offline analysis.
//
// The shard count is a runtime tunable, not a boot-time constant:
// Rebalance snapshots every client's state, rehashes it onto a new shard
// set and swaps the topology without dropping a request, and
// SnapshotInto/RestoreFrom persist the same state across process
// restarts — see rebalance.go and internal/statecodec.
package httpguard

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/fnvhash"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/sentinel"
	"divscrape/internal/sitemodel"
	"divscrape/internal/trace"
	"divscrape/internal/trajectory"
)

// Action is the legacy static policy selector, kept for compatibility;
// Config.Policy supersedes it.
type Action int

const (
	// Observe lets everything through and only records verdicts.
	Observe Action = iota + 1
	// Tag forwards alerted requests with X-Scrape-Verdict headers set, so
	// the application can degrade (serve cached prices, hide inventory).
	Tag
	// Block answers alerted requests with 403 without reaching the app.
	Block
)

// Verdicts is the set of per-request judgements exposed to callbacks.
// Trajectory stays zero on pair guards (Config.EnableTrajectory unset),
// so the ensemble semantics below reduce to the classic pair schemes.
type Verdicts struct {
	// Commercial is the fingerprint/reputation detector's verdict.
	Commercial detector.Verdict
	// Behavioural is the session-analysis detector's verdict.
	Behavioural detector.Verdict
	// Trajectory is the semantic navigation detector's verdict; zero
	// unless the guard was built with Config.EnableTrajectory.
	Trajectory detector.Verdict
}

// votes counts alerting detectors.
func (v Verdicts) votes() int {
	n := 0
	if v.Commercial.Alert {
		n++
	}
	if v.Behavioural.Alert {
		n++
	}
	if v.Trajectory.Alert {
		n++
	}
	return n
}

// Alerted reports whether any detector alerted (1-out-of-N, the paper's
// maximum-detection scheme).
func (v Verdicts) Alerted() bool {
	return v.votes() > 0
}

// Confirmed reports whether at least two detectors alerted. On a pair
// guard that is 2-out-of-2, the paper's minimum-false-alarm scheme; with
// the trajectory side enabled it is the 2-out-of-3 majority, which keeps
// confirmation strict while letting any one detector sit out.
func (v Verdicts) Confirmed() bool {
	return v.votes() >= 2
}

// Config parameterises the guard.
type Config struct {
	// Action selects a legacy static policy. Default Observe. Ignored
	// when Policy is set.
	Action Action
	// BlockOnConfirmedOnly, with Action Block, blocks only 2-out-of-2
	// confirmed requests; single-tool alerts are tagged instead. This is
	// the serial-confirmation deployment the paper sketches.
	BlockOnConfirmedOnly bool
	// Policy, when non-nil, selects the mitigation policy directly —
	// typically mitigate.Graduated() for the full escalation ladder.
	Policy *mitigate.Policy
	// TrustedProxies lists the peers (IPs or CIDR prefixes) allowed to
	// assert the client address via X-Forwarded-For / X-Real-IP. When the
	// immediate peer is listed here, the guard keys detection and
	// enforcement by the forwarded client address; otherwise a deployment
	// behind a proxy would collapse all traffic into one client.
	TrustedProxies []string
	// OnVerdict, if set, observes every request's verdicts after the
	// response completes. Called synchronously; keep it fast.
	OnVerdict func(entry logfmt.Entry, v Verdicts)
	// OnDecision, if set, observes the enforcement decision taken for
	// every request, keyed by the derived client address in entry.
	// Called synchronously before the response is written.
	OnDecision func(entry logfmt.Entry, v Verdicts, d mitigate.Decision)
	// Sentinel and Arcane override detector configurations.
	Sentinel sentinel.Config
	// Arcane overrides the behavioural detector configuration.
	Arcane arcane.Config
	// EnableTrajectory adds the semantic trajectory detector as a third
	// judging side on every shard. Alerted becomes 1-out-of-3 and
	// Confirmed the 2-out-of-3 majority; snapshots grow a trajectory
	// block (a pair guard cannot restore a trajectory snapshot, or vice
	// versa — restore guards refuse mismatched layouts).
	EnableTrajectory bool
	// Trajectory overrides the trajectory detector configuration. Only
	// consulted with EnableTrajectory; a nil Model selects the shared
	// default benign-trained model.
	Trajectory trajectory.Config
	// Shards partitions detection state by client IP across this many
	// independently locked detector pairs; clients never contend across
	// shards. Default GOMAXPROCS.
	Shards int
	// EvictWindow bounds how long idle per-client detector state survives:
	// the periodic per-shard sweep drops sessions untouched for longer.
	// Zero selects twice the larger detector idle timeout (verdict-neutral
	// by the eviction-equivalence argument); negative disables the
	// detector sweep (the mitigation engine still sweeps by its IdleTTL).
	EvictWindow time.Duration
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
	// Sleep overrides the tarpit stall (tests and benchmarks substitute
	// a no-op). When nil the tarpit uses a timer that also observes the
	// request context, so disconnected clients release their goroutines.
	Sleep func(time.Duration)
	// Degraded selects what the guard does with requests it cannot fully
	// judge — shed by admission control, or inspected while a detector
	// is quarantined after a panic. Default FailOpen.
	Degraded DegradedMode
	// MaxInFlight bounds concurrently judged requests per shard; excess
	// requests are shed to the Degraded policy instead of queueing on
	// the shard lock. Challenge-flow requests are exempt (a client must
	// always be able to solve its way back down the ladder). Default
	// 256; negative disables the gate.
	MaxInFlight int
	// QuarantineBackoff is how long a detector that panicked stays
	// quarantined before a restore attempt; repeat panics double it, up
	// to 32×. Default 30s.
	QuarantineBackoff time.Duration
	// OnDegraded, if set, observes failure-plane transitions (detector
	// quarantines and restores). Called synchronously under the shard
	// lock: keep it fast and never call back into the guard.
	OnDegraded func(DegradedEvent)
	// Trace, when non-nil, enables the decision provenance plane:
	// per-stage latency histograms in the guard's metrics registry and a
	// sampled flight recorder of complete decision records (feature
	// snapshot, per-detector verdicts and reasons, ensemble outcome,
	// mitigation rung before/after), served at DebugTracePath and
	// DebugExplainPath. The zero trace.RecorderConfig takes the
	// documented sampling defaults; escalations are always captured.
	// Nil keeps the decide path entirely trace-free — steady-state
	// ServeHTTP stays 0 allocs/request with the plane compiled in.
	Trace *trace.RecorderConfig
	// EnablePprof mounts net/http/pprof's profile handlers under
	// /debug/pprof/ on DebugHandler. Off by default: the debug mux is
	// often reachable from operations networks where exposing heap and
	// CPU profiles should be a deliberate choice.
	EnablePprof bool
}

// guardShard is one key-partition of detection and enforcement state: a
// private detector pair, mitigation engine and lock. The lock guards only
// detector and engine mutation; counters are atomics updated outside it,
// and enrichment happens before the lock is ever taken, so the critical
// section is exactly the per-client state machines and nothing else.
type guardShard struct {
	mu  sync.Mutex
	sen *sentinel.Detector
	arc *arcane.Detector
	// traj is the optional third side; nil unless EnableTrajectory.
	traj   *trajectory.Detector
	engine *mitigate.Engine

	// index is the shard's position in the current topology, recorded so
	// failure-plane events can name the shard without holding g.mu.
	index int
	// inflight is the admission-control gauge: incremented before the
	// shard lock is taken, so the shed decision itself never queues.
	inflight atomic.Int64
	// senHealth, arcHealth and trajHealth are the failure-plane state of
	// the detector slots (failure.go); guarded by mu.
	senHealth  detectorHealth
	arcHealth  detectorHealth
	trajHealth detectorHealth

	total      atomic.Uint64
	alerted    atomic.Uint64
	passed     atomic.Uint64
	allowed    atomic.Uint64
	tarpitted  atomic.Uint64
	challenged atomic.Uint64
	blocked    atomic.Uint64
}

// countAction tallies an enforcement outcome without touching the shard
// lock.
func (s *guardShard) countAction(a mitigate.Action) {
	switch a {
	case mitigate.Tarpit:
		s.tarpitted.Add(1)
	case mitigate.Challenge:
		s.challenged.Add(1)
	case mitigate.Block:
		s.blocked.Add(1)
	default:
		s.allowed.Add(1)
	}
}

// sweepEvery is the per-shard request period between enforcement-state
// eviction sweeps.
const sweepEvery = 4096

// challengeFlow classifies a request's role in the challenge protocol.
type challengeFlow int

const (
	flowNone challengeFlow = iota
	flowScript
	flowVerify
)

// Guard is the middleware instance. Create with New, wrap handlers with
// Wrap.
type Guard struct {
	cfg      Config
	policy   mitigate.Policy
	trusted  trustedNets
	enricher *detector.SharedEnricher
	recPool  sync.Pool // *statusRecorder

	// Observability surface (debug.go): the registry reads the atomic
	// counters below and on the shards; latency lands in the histogram on
	// every request. evicted counts sessions dropped by windowed sweeps.
	metrics *metrics.Registry
	latency *metrics.Histogram
	evicted atomic.Uint64
	sweeps  atomic.Uint64

	// trace is the provenance plane (trace.go); nil when Config.Trace is
	// nil, which every span and capture call site tolerates at the cost
	// of one nil check.
	trace *trace.Tracer

	// Failure-plane counters (failure.go): requests shed by admission
	// control, requests judged with a quarantined detector sitting out,
	// and per-detector panic/restore tallies. Guard-level rather than
	// per-shard so they survive Rebalance.
	shed         atomic.Uint64
	degradedReqs atomic.Uint64
	panics       [numSides]atomic.Uint64
	restores     [numSides]atomic.Uint64

	// escFrozen mirrors the cluster plane's degraded fail-closed state at
	// the guard level (cluster.go): it survives Rebalance, which rebuilds
	// the shard engines and must re-apply the freeze to the new set.
	escFrozen atomic.Bool

	// mu guards the shard set itself: requests hold it shared for the
	// duration of a decision, Rebalance and state restore hold it
	// exclusively while they swap or rewrite the set. The per-shard mutex
	// below it still serialises per-client state; this lock only makes
	// the shard *topology* safely mutable at runtime.
	mu     sync.RWMutex
	shards []*guardShard
}

// New builds a guard with its own detector pairs, mitigation engines and
// reputation feed.
func New(cfg Config) (*Guard, error) {
	var policy mitigate.Policy
	switch {
	case cfg.Policy != nil:
		policy = *cfg.Policy
	case cfg.Action == 0, cfg.Action == Observe:
		policy = mitigate.Observe()
	case cfg.Action == Tag:
		policy = mitigate.Tag()
	case cfg.Action == Block:
		policy = mitigate.StaticBlock(cfg.BlockOnConfirmedOnly)
	default:
		return nil, fmt.Errorf("httpguard: invalid action %d", int(cfg.Action))
	}
	trusted, err := parseTrustedProxies(cfg.TrustedProxies)
	if err != nil {
		return nil, fmt.Errorf("httpguard: %w", err)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QuarantineBackoff <= 0 {
		cfg.QuarantineBackoff = 30 * time.Second
	}
	switch {
	case cfg.MaxInFlight == 0:
		cfg.MaxInFlight = 256
	case cfg.MaxInFlight < 0:
		cfg.MaxInFlight = 0 // gate disabled
	}
	if cfg.EvictWindow == 0 {
		// Twice the larger idle timeout: comfortably inside the
		// verdict-neutral regime even with sweeps landing mid-window.
		senIdle := cfg.Sentinel.IdleTimeout
		if senIdle <= 0 {
			senIdle = sentinel.DefaultConfig().IdleTimeout
		}
		arcIdle := cfg.Arcane.IdleTimeout
		if arcIdle <= 0 {
			arcIdle = arcane.DefaultConfig().IdleTimeout
		}
		cfg.EvictWindow = 2 * max(senIdle, arcIdle)
		if cfg.EnableTrajectory {
			trajIdle := cfg.Trajectory.IdleTimeout
			if trajIdle <= 0 {
				trajIdle = trajectory.DefaultConfig().IdleTimeout
			}
			cfg.EvictWindow = max(cfg.EvictWindow, 2*trajIdle)
		}
	}
	g := &Guard{
		cfg:     cfg,
		policy:  policy,
		trusted: trusted,
		// One shared, concurrency-safe enricher: cache hits cost a read
		// lock, and a UA parsed for one shard's client is a hit for all.
		enricher: detector.NewSharedEnricher(iprep.BuildFeed()),
		shards:   make([]*guardShard, cfg.Shards),
	}
	g.recPool.New = func() any { return new(statusRecorder) }
	for i := range g.shards {
		shard, err := g.newShard()
		if err != nil {
			return nil, err
		}
		shard.index = i
		g.shards[i] = shard
	}
	g.buildMetrics()
	if cfg.Trace != nil {
		g.trace = trace.New(trace.Config{
			Registry:  g.metrics,
			Detectors: sideNames[:g.numActiveSides()],
			Now:       cfg.Now,
			Recorder:  *cfg.Trace,
		})
	}
	return g, nil
}

// newShard builds one key-partition: a private detector pair and
// mitigation engine configured like every other shard's.
func (g *Guard) newShard() (*guardShard, error) {
	sen, err := sentinel.New(g.cfg.Sentinel)
	if err != nil {
		return nil, fmt.Errorf("httpguard: commercial detector: %w", err)
	}
	arc, err := arcane.New(g.cfg.Arcane)
	if err != nil {
		return nil, fmt.Errorf("httpguard: behavioural detector: %w", err)
	}
	var traj *trajectory.Detector
	if g.cfg.EnableTrajectory {
		if traj, err = trajectory.New(g.cfg.Trajectory); err != nil {
			return nil, fmt.Errorf("httpguard: trajectory detector: %w", err)
		}
	}
	engine, err := mitigate.New(g.policy)
	if err != nil {
		return nil, fmt.Errorf("httpguard: mitigation engine: %w", err)
	}
	return &guardShard{sen: sen, arc: arc, traj: traj, engine: engine}, nil
}

// Shards reports the number of detection-state partitions.
func (g *Guard) Shards() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.shards)
}

// Policy returns the effective mitigation policy.
func (g *Guard) Policy() mitigate.Policy { return g.policy }

// Stats reports lifetime counters summed across shards: requests seen,
// requests alerted (1-out-of-2) and requests blocked.
func (g *Guard) Stats() (total, alerted, blocked uint64) {
	s := g.StatsDetail()
	return s.Total, s.Alerted, s.Actions.Blocked
}

// GuardStats is the lifetime counter snapshot across all shards.
type GuardStats struct {
	// Total and Alerted count requests seen and 1-out-of-2 alerts.
	Total, Alerted uint64
	// Actions tallies enforcement outcomes.
	Actions mitigate.ActionCounts
	// ChallengesPassed counts solved challenge beacons.
	ChallengesPassed uint64
}

// StatsDetail reports the full counter snapshot summed across shards. The
// counters are lock-free atomics, so the snapshot is a consistent point
// per counter but not across counters — the usual monitoring contract.
func (g *Guard) StatsDetail() GuardStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out GuardStats
	for _, s := range g.shards {
		out.Total += s.total.Load()
		out.Alerted += s.alerted.Load()
		out.Actions.Add(mitigate.ActionCounts{
			Allowed:    s.allowed.Load(),
			Tarpitted:  s.tarpitted.Load(),
			Challenged: s.challenged.Load(),
			Blocked:    s.blocked.Load(),
		})
		out.ChallengesPassed += s.passed.Load()
	}
	return out
}

// shardIndex hashes a client's numeric address onto a shard with
// fnvhash.Shard — the partition rule the offline pipeline's
// ShardedRelaxed mode uses — so one client's state always lives behind
// one lock, and resharding can recompute every client's home from its
// session key alone. Addresses that do not parse as IPv4 collapse to 0,
// exactly as enrichment does, keeping routing and session keying
// consistent. The caller must hold g.mu.
func (g *Guard) shardIndex(ip uint32, shards int) int {
	return fnvhash.Shard(ip, shards)
}

// challengeBody is the interstitial served in place of content at the
// Challenge rung; loading it in a browser runs the challenge script,
// which posts the solution beacon.
const challengeBody = `<!doctype html>
<html><head><script src="` + sitemodel.ChallengeScriptPath + `"></script></head>
<body>Checking your browser&hellip; reload in a moment.</body></html>
`

// challengeScript proves a JavaScript runtime by posting the verify
// beacon. (A production deployment would compute a signed token here; the
// reproduction's protocol is the beacon itself, matching sitemodel.)
const challengeScript = `(function(){var x=new XMLHttpRequest();x.open("POST","` +
	sitemodel.ChallengeVerifyPath + `");x.send();})();
`

// Response bodies as byte slices, written directly (fmt would allocate on
// the hot path's interface boxing).
var (
	challengeScriptBytes = []byte(challengeScript)
	challengeBodyBytes   = []byte(challengeBody)
)

// Wrap returns a handler that judges every request before delegating to
// next.
func (g *Guard) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Pre-decision uses the request view with a provisional status;
		// the final verdict below re-records with the real status for
		// accurate session state. Products make the same compromise: the
		// block/allow decision cannot wait for the response.
		entry := g.entryFor(r, http.StatusOK, 0)
		flow := g.flowFor(r)
		verdicts, dec, fail := g.decide(entry, flow)
		if g.cfg.OnDecision != nil {
			g.cfg.OnDecision(entry, verdicts, dec)
		}

		// The challenge flow is hosted by the guard itself and always
		// reachable — no client could otherwise solve its way back down
		// the ladder, and a degraded guard still verifies beacons.
		switch flow {
		case flowScript:
			w.Header().Set("Content-Type", "text/javascript; charset=utf-8")
			w.Write(challengeScriptBytes)
			g.report(entryWithStatus(entry, http.StatusOK), verdicts)
			g.observeLatency(entry.Time)
			return
		case flowVerify:
			w.WriteHeader(http.StatusNoContent)
			g.report(entryWithStatus(entry, http.StatusNoContent), verdicts)
			g.observeLatency(entry.Time)
			return
		}

		// Degraded judgement under FailClosed is refused with 503 — not
		// 403, the client did nothing wrong; the guard is impaired. Under
		// FailOpen (the default) execution falls through and the request
		// is served on whatever judgement remained.
		if fail != failNone && g.cfg.Degraded == FailClosed {
			w.Header().Set("X-Scrape-Verdict", "degraded")
			w.Header().Set("Retry-After", "1")
			http.Error(w, "detection degraded, retry shortly", http.StatusServiceUnavailable)
			g.report(entryWithStatus(entry, http.StatusServiceUnavailable), verdicts)
			g.observeLatency(entry.Time)
			return
		}

		switch dec.Action {
		case mitigate.Block:
			w.Header().Set("X-Scrape-Verdict", "blocked")
			http.Error(w, "automated scraping detected", http.StatusForbidden)
			g.report(entryWithStatus(entry, http.StatusForbidden), verdicts)
			g.observeLatency(entry.Time)
			return
		case mitigate.Challenge:
			w.Header().Set("X-Scrape-Verdict", "challenge")
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(challengeBodyBytes)
			g.report(entryWithStatus(entry, http.StatusServiceUnavailable), verdicts)
			g.observeLatency(entry.Time)
			return
		case mitigate.Tarpit:
			g.tarpit(r.Context(), dec.Delay)
		}
		if dec.Tagged {
			w.Header().Set("X-Scrape-Verdict", verdictLabel(verdicts))
		}

		// The recorder is pooled: it is the only per-request heap object
		// the guard would otherwise create on the allow path.
		rec := g.recPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		next.ServeHTTP(rec, r)
		status := rec.status
		rec.ResponseWriter = nil
		g.recPool.Put(rec)
		g.report(entryWithStatus(entry, status), verdicts)
		g.observeLatency(entry.Time)
	})
}

// flowFor classifies the request against the challenge protocol; only
// meaningful when the policy can challenge.
func (g *Guard) flowFor(r *http.Request) challengeFlow {
	if !g.policy.UsesChallenge() {
		return flowNone
	}
	switch {
	case r.URL.Path == sitemodel.ChallengeScriptPath && r.Method == http.MethodGet:
		return flowScript
	case r.URL.Path == sitemodel.ChallengeVerifyPath && r.Method == http.MethodPost:
		return flowVerify
	}
	return flowNone
}

// decide runs both detectors and the mitigation engine of the client's
// shard. Only detector-state and engine mutation sit inside the shard
// lock: enrichment happens first through the shared read-mostly enricher,
// and all counters are atomics updated outside the critical section.
// Challenge-flow requests bypass the engine (they must stay reachable)
// but still update detector state — the sentinel's own challenge tracking
// depends on seeing the beacon.
func (g *Guard) decide(entry logfmt.Entry, flow challengeFlow) (Verdicts, mitigate.Decision, failState) {
	var req detector.Request
	ts := g.trace.Now()
	g.enricher.EnrichInto(&req, entry)
	g.trace.Lap(trace.StageEnrich, ts)
	// The shard set is held shared for the whole decision (including the
	// counter updates), so a concurrent Rebalance observes either all of
	// this request's effects on the old topology or none: requests are
	// never dropped, only briefly delayed while the swap runs.
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := g.shards[g.shardIndex(req.IP, len(g.shards))]

	// Admission control: the in-flight gauge is checked before the shard
	// lock is ever taken, so a shed decision costs two atomic ops and no
	// queueing — the point of the gate is that overload never reaches
	// the lock. Challenge-flow requests are exempt.
	gated := flow == flowNone && g.cfg.MaxInFlight > 0
	if gated && s.inflight.Add(1) > int64(g.cfg.MaxInFlight) {
		s.inflight.Add(-1)
		s.total.Add(1)
		g.shed.Add(1)
		return Verdicts{}, mitigate.Decision{Action: mitigate.Allow}, failShed
	}

	// The count-based sweep cadence stays per-shard and deterministic
	// under a test clock; the ticket is drawn before the lock so the
	// sweep itself is the only extra work ever done inside it.
	sweep := s.total.Add(1)%sweepEvery == 0

	// The admission gauge is released on every exit from here on —
	// including a panic escaping the sweep or engine path below — or a
	// single fault would leak admission slots until the shard sheds
	// everything. Open-coded, so the non-shed path stays zero-alloc.
	if gated {
		defer s.inflight.Add(-1)
	}
	v, dec, fail := s.judge(g, &req, entry, flow, sweep)

	if fail == failDegraded {
		g.degradedReqs.Add(1)
	}
	if v.Alerted() {
		s.alerted.Add(1)
	}
	if flow == flowVerify {
		s.passed.Add(1)
	}
	s.countAction(dec.Action)
	return v, dec, fail
}

// judge is the shard-locked portion of a decision: detectors, periodic
// sweep, and mitigation engine. The unlock is deferred: the detector
// calls sit behind their own panic barrier, but a panic escaping the
// sweep or engine path — the same corrupted-state-machine failure, just
// surfacing in Snapshot or Apply instead of Inspect — must not leave
// the shard mutex held forever and the shard hung.
func (s *guardShard) judge(g *Guard, req *detector.Request, entry logfmt.Entry, flow challengeFlow, sweep bool) (v Verdicts, dec mitigate.Decision, fail failState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := g.trace
	// Each detector runs behind the shard's panic barrier: a quarantined
	// side sits out (its verdict stays zero) and the ensemble degrades
	// to whatever detection remains.
	ts := tr.Now()
	okSen := s.runDetector(g, sideSentinel, req, &v.Commercial, entry.Time)
	ts = tr.LapDetector(int(sideSentinel), ts)
	okArc := s.runDetector(g, sideArcane, req, &v.Behavioural, entry.Time)
	ts = tr.LapDetector(int(sideArcane), ts)
	okTraj := true
	if s.traj != nil {
		okTraj = s.runDetector(g, sideTrajectory, req, &v.Trajectory, entry.Time)
		tr.LapDetector(int(sideTrajectory), ts)
	}
	if !okSen || !okArc || !okTraj {
		fail = failDegraded
	}
	// Periodic eviction bounds state growth: hostile traffic rotates
	// through fresh addresses, and idle, decayed clients would otherwise
	// accumulate forever. The same slot sweeps the shard's detector
	// session stores on the configured retention window, so a long-lived
	// guard's memory stays O(clients active in the window), and
	// re-snapshots each healthy detector as its quarantine-restore
	// point — the state a panicking side comes back from.
	if sweep {
		n := s.engine.Sweep(entry.Time)
		if g.cfg.EvictWindow > 0 {
			cutoff := entry.Time.Add(-g.cfg.EvictWindow)
			n += s.sen.EvictBefore(cutoff)
			n += s.arc.EvictBefore(cutoff)
			if s.traj != nil {
				n += s.traj.EvictBefore(cutoff)
			}
		}
		s.refreshLastGood(sideSentinel)
		s.refreshLastGood(sideArcane)
		if s.traj != nil {
			s.refreshLastGood(sideTrajectory)
		}
		g.sweeps.Add(1)
		g.evicted.Add(uint64(n))
	}
	// The ladder rung before Apply is read only when tracing: the flight
	// record reports rung-before → rung-after, and a rung increase is the
	// always-capture escalation trigger.
	var rungBefore mitigate.Action
	if tr != nil {
		rungBefore = s.engine.Level(entry.RemoteAddr)
	}
	ts = tr.Now() // re-anchor: sweep work must not pollute the ensemble span
	switch {
	case flow == flowScript:
		dec = mitigate.Decision{Action: mitigate.Allow}
	case flow == flowVerify:
		s.engine.ChallengePassed(entry.RemoteAddr, entry.Time)
		dec = mitigate.Decision{Action: mitigate.Allow}
	case fail == failDegraded && g.cfg.Degraded == FailClosed:
		// Fail-closed refuses the request in Wrap; feeding a partial
		// assessment into the ladder would corrupt the client's
		// suspicion integral with verdicts one detector never cast.
		dec = mitigate.Decision{Action: mitigate.Allow}
	default:
		score := v.Commercial.Score + v.Behavioural.Score
		n := 2.0
		if s.traj != nil {
			score += v.Trajectory.Score
			n = 3.0
		}
		dec = s.engine.Apply(entry.RemoteAddr, entry.Time, mitigate.Assessment{
			Alerted:   v.Alerted(),
			Confirmed: v.Confirmed(),
			Score:     score / n,
		})
	}
	tr.Lap(trace.StageEnsemble, ts)
	if tr != nil {
		// Captured under the shard lock: the feature snapshot aliases the
		// detectors' scratch vectors, which the next request on this shard
		// overwrites.
		s.capture(tr, req, entry, &v, dec, rungBefore, okSen, okArc, okTraj)
	}
	return v, dec, fail
}

func (g *Guard) report(entry logfmt.Entry, v Verdicts) {
	if g.cfg.OnVerdict != nil {
		g.cfg.OnVerdict(entry, v)
	}
}

// entryFor converts a live request into the Combined Log Format view,
// deriving the client address through any trusted proxy chain.
func (g *Guard) entryFor(r *http.Request, status int, size int64) logfmt.Entry {
	user := "-"
	if u, _, ok := r.BasicAuth(); ok && u != "" {
		user = u
	}
	path := r.URL.RequestURI()
	if path == "" {
		path = "/"
	}
	return logfmt.Entry{
		RemoteAddr: g.clientIP(r),
		Identity:   "-",
		AuthUser:   user,
		// The skew fault point lets the chaos suite shift the guard's
		// clock without touching Config.Now; disarmed it adds one atomic
		// load and a zero Add.
		Time:      g.cfg.Now().Add(fiClock.Skew()),
		Method:    r.Method,
		Path:      path,
		Proto:     r.Proto,
		Status:    status,
		Bytes:     size,
		Referer:   headerOrDash(r, "Referer"),
		UserAgent: headerOrDash(r, "User-Agent"),
	}
}

func entryWithStatus(e logfmt.Entry, status int) logfmt.Entry {
	e.Status = status
	return e
}

func headerOrDash(r *http.Request, name string) string {
	if v := r.Header.Get(name); v != "" {
		return v
	}
	return "-"
}

func verdictLabel(v Verdicts) string {
	switch {
	case v.Confirmed():
		return "confirmed"
	case v.Commercial.Alert:
		return "commercial"
	case v.Behavioural.Alert:
		return "behavioural"
	default:
		return "trajectory"
	}
}

// statusRecorder captures the response status for the post-hoc log view.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
