// Package divscrape reproduces "Using Diverse Detectors for Detecting
// Malicious Web Scraping Activity" (Marques et al., DSN 2018) as a
// runnable system: a synthetic e-commerce traffic generator emitting
// labelled Apache access logs, independently built scraping detectors —
// a commercial-style fingerprint/reputation/challenge detector (the
// paper's Distil role), a behavioural session-analysis detector (the
// Arcane role) and a semantic trajectory detector judging navigation
// shape against a benign site-walk model — and the analysis machinery
// for alerting diversity, adjudication schemes and deployment topologies.
//
// This package is the public facade: it re-exports the main workflow so
// applications can generate traffic, run any set of the detectors and
// compute the paper's tables without importing internal packages. The
// paper's two tools remain the default (DetectorPair and the no-name
// forms of every entry point are that pair); NewDetectorSet selects
// detectors by name. Specialised use (custom detectors, topologies, ROC
// sweeps) goes through the same types, which alias the implementation
// packages.
//
// Quickstart (sequential, byte-for-byte deterministic):
//
//	gen, _ := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 1, Duration: 6 * time.Hour})
//	pair, _ := divscrape.NewDetectorPair()
//	summary, _ := divscrape.Analyze(gen, pair)
//	fmt.Println(summary.Contingency.Both, summary.Contingency.Neither)
//
// Multi-core quickstart (sharded; same results, higher throughput):
//
//	gen, _ := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 1, Duration: 6 * time.Hour})
//	summary, _ := divscrape.AnalyzeShardedRelaxed(gen, 0) // 0 → GOMAXPROCS shards
//
// The detection pipeline has two execution modes. Sequential runs on one
// goroutine and is the reference; pick it for debugging, single-core
// replays and outputs that need one total order. ShardedRelaxed
// partitions traffic by client IP across worker shards with private
// detector instances, and each shard delivers its decisions
// independently: per-client order and the whole-stream verdict multiset
// are preserved, the cross-client interleaving is not. Every aggregate
// the paper reports is an order-free count, so the AnalyzeShardedRelaxed
// entry points reproduce Analyze's tables exactly. Because all
// per-client state follows the client onto one shard, both modes judge
// every request identically — they trade delivery order for throughput,
// never accuracy.
package divscrape

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/sentinel"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// Core request/verdict vocabulary, shared by every component.
type (
	// Entry is one Apache access-log record (Combined Log Format).
	Entry = logfmt.Entry
	// Request is an entry enriched with parse results for detectors.
	Request = detector.Request
	// Verdict is a detector's per-request judgement.
	Verdict = detector.Verdict
	// ReasonList is the fixed-capacity, allocation-free list of interned
	// reason strings a Verdict carries.
	ReasonList = detector.ReasonList
	// Detector is the streaming detector contract.
	Detector = detector.Detector
	// Label is the generator's ground truth for one request.
	Label = detector.Label
	// Archetype identifies the kind of actor behind a request.
	Archetype = detector.Archetype
	// Event is one generated request with its ground truth.
	Event = workload.Event
	// GeneratorConfig parameterises traffic generation.
	GeneratorConfig = workload.Config
	// Profile is the traffic mix.
	Profile = workload.Profile
	// Contingency is the both/neither/only alert-agreement table
	// (the paper's Table 2).
	Contingency = diversity.Contingency
	// Confusion is a labelled confusion matrix with the usual metrics.
	Confusion = evaluate.Confusion
)

// Factory constructs a fresh, independent detector instance; the sharded
// pipeline uses one factory per detector to give every shard private
// state.
type Factory = detector.Factory

// Generator produces labelled synthetic traffic.
type Generator = workload.Generator

// NewGenerator builds a traffic generator; zero-value config fields take
// calibrated defaults (paper-shaped mix, 8-day window).
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	return workload.NewGenerator(cfg)
}

// CalibratedProfile returns the traffic mix tuned to the paper's dataset
// shape; scale multiplies actor populations.
func CalibratedProfile(scale float64) Profile {
	return workload.CalibratedProfile(scale)
}

// Detector registry: the named, CLI-selectable constructors. Each factory
// builds a fresh instance with its calibrated defaults.
var detectorRegistry = map[string]Factory{
	"sentinel":   func() (Detector, error) { return sentinel.New(sentinel.Config{}) },
	"arcane":     func() (Detector, error) { return arcane.New(arcane.Config{}) },
	"trajectory": func() (Detector, error) { return trajectory.New(trajectory.Config{}) },
}

// DefaultDetectors is the paper's pair in report order: the commercial
// role first, the behavioural role second. Every entry point that takes
// no detector names analyses this set.
var DefaultDetectors = []string{"sentinel", "arcane"}

// DetectorNames returns every registered detector name, sorted.
func DetectorNames() []string {
	names := make([]string, 0, len(detectorRegistry))
	for name := range detectorRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FactoriesFor resolves detector names (see DetectorNames) to factories,
// preserving order. No names selects DefaultDetectors.
func FactoriesFor(names ...string) ([]Factory, error) {
	if len(names) == 0 {
		names = DefaultDetectors
	}
	fs := make([]Factory, len(names))
	for i, name := range names {
		f, ok := detectorRegistry[name]
		if !ok {
			return nil, fmt.Errorf("divscrape: unknown detector %q (have %v)", name, DetectorNames())
		}
		fs[i] = f
	}
	return fs, nil
}

// DetectorSet is an ordered list of detectors sharing one enricher, ready
// to inspect a request stream in timestamp order. Index i of every
// verdict slice in the API refers to Detectors[i]. DetectorPair is the
// fixed two-detector view of the same machinery.
type DetectorSet struct {
	// Detectors are inspected in order on every request.
	Detectors []Detector

	enricher *detector.Enricher
}

// NewDetectorSet builds the named detectors (see DetectorNames) with
// their calibrated defaults and a shared reputation feed. No names
// selects the paper's pair, DefaultDetectors.
func NewDetectorSet(names ...string) (*DetectorSet, error) {
	factories, err := FactoriesFor(names...)
	if err != nil {
		return nil, err
	}
	dets := make([]Detector, len(factories))
	for i, f := range factories {
		if dets[i], err = f(); err != nil {
			return nil, fmt.Errorf("divscrape: build detector: %w", err)
		}
	}
	return &DetectorSet{
		Detectors: dets,
		enricher:  detector.NewEnricher(iprep.BuildFeed()),
	}, nil
}

// Len returns the number of detectors.
func (s *DetectorSet) Len() int { return len(s.Detectors) }

// Names returns the detectors' names in inspection order.
func (s *DetectorSet) Names() []string {
	names := make([]string, len(s.Detectors))
	for i, d := range s.Detectors {
		names[i] = d.Name()
	}
	return names
}

// InspectInto enriches one log entry and writes one verdict per detector
// into out, which must hold at least Len() elements. Entries must arrive
// in timestamp order. Every consumed verdict slot is fully overwritten;
// the call performs no allocations in steady state.
func (s *DetectorSet) InspectInto(entry Entry, out []Verdict) {
	var req Request
	s.enricher.EnrichInto(&req, entry)
	for i, d := range s.Detectors {
		d.InspectInto(&req, &out[i])
	}
}

// Inspect is InspectInto with a freshly allocated verdict slice.
func (s *DetectorSet) Inspect(entry Entry) []Verdict {
	out := make([]Verdict, len(s.Detectors))
	s.InspectInto(entry, out)
	return out
}

// Enrich converts one log entry into the Request form detectors consume,
// for callers that drive the detectors individually.
func (s *DetectorSet) Enrich(entry Entry) Request {
	return s.enricher.Enrich(entry)
}

// Reset clears all detector state.
func (s *DetectorSet) Reset() {
	for _, d := range s.Detectors {
		d.Reset()
	}
	s.enricher.Reset()
}

// EvictBefore proactively drops every detector's per-client state
// untouched since cutoff, returning the number of sessions evicted.
// Verdict-neutral while cutoff trails stream time by at least the
// detectors' idle timeouts.
func (s *DetectorSet) EvictBefore(cutoff time.Time) int {
	n := 0
	for _, d := range s.Detectors {
		if ev, ok := d.(Evictable); ok {
			n += ev.EvictBefore(cutoff)
		}
	}
	return n
}

// SnapshotInto serialises the set's state through a statecodec.Writer.
// The frame is the one DetectorPair has always written — a tagged block
// holding the enricher followed by each detector's name and state — so a
// pair snapshot and a (sentinel, arcane) set snapshot are the same bytes.
func (s *DetectorSet) SnapshotInto(w *statecodec.Writer) error {
	w.Tag(tagPair)
	s.enricher.SnapshotInto(w)
	for _, d := range s.Detectors {
		sn, ok := d.(statecodec.Snapshotter)
		if !ok {
			return fmt.Errorf("divscrape: detector %s does not support snapshots", d.Name())
		}
		w.String(d.Name())
		sn.SnapshotInto(w)
	}
	return w.Err()
}

// RestoreFrom rebuilds the set's state from a snapshot written by a set
// with the same detectors (names and configuration). On failure the set
// is Reset — empty state, never a half-restored mix of restored and
// fresh detectors.
func (s *DetectorSet) RestoreFrom(r *statecodec.Reader) error {
	if err := s.restoreFrom(r); err != nil {
		s.Reset()
		return err
	}
	return nil
}

func (s *DetectorSet) restoreFrom(r *statecodec.Reader) error {
	if err := r.Expect(tagPair); err != nil {
		return err
	}
	if err := s.enricher.RestoreFrom(r); err != nil {
		return err
	}
	for _, d := range s.Detectors {
		sn, ok := d.(statecodec.Snapshotter)
		if !ok {
			return fmt.Errorf("divscrape: detector %s does not support snapshots", d.Name())
		}
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if name != d.Name() {
			return fmt.Errorf("%w: snapshot holds detector %q, set has %q",
				statecodec.ErrCorrupt, name, d.Name())
		}
		if err := sn.RestoreFrom(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// DetectorPair is the paper's two tools, ready to inspect a request
// stream in timestamp order.
type DetectorPair struct {
	// Commercial is the fingerprint/reputation/challenge detector
	// (Distil role).
	Commercial Detector
	// Behavioural is the session-analysis detector (Arcane role).
	Behavioural Detector

	enricher *detector.Enricher
}

// NewDetectorPair builds both detectors with their calibrated defaults
// and a shared reputation feed.
func NewDetectorPair() (*DetectorPair, error) {
	set, err := NewDetectorSet()
	if err != nil {
		return nil, err
	}
	return &DetectorPair{
		Commercial:  set.Detectors[0],
		Behavioural: set.Detectors[1],
		enricher:    set.enricher,
	}, nil
}

// asSet returns the set view of the pair, sharing detectors and enricher.
func (p *DetectorPair) asSet() *DetectorSet {
	return &DetectorSet{
		Detectors: []Detector{p.Commercial, p.Behavioural},
		enricher:  p.enricher,
	}
}

// MaxReasons is the number of explanation slots a Verdict carries inline.
const MaxReasons = detector.MaxReasons

// Inspect enriches one log entry and returns both verdicts. Entries must
// arrive in timestamp order.
func (p *DetectorPair) Inspect(entry Entry) (commercial, behavioural Verdict) {
	var req Request
	p.enricher.EnrichInto(&req, entry)
	p.Commercial.InspectInto(&req, &commercial)
	p.Behavioural.InspectInto(&req, &behavioural)
	return commercial, behavioural
}

// InspectInto is Inspect writing into caller-owned verdicts, the
// allocation-free form hot loops use. Every field of both verdicts is
// overwritten.
func (p *DetectorPair) InspectInto(entry Entry, commercial, behavioural *Verdict) {
	var req Request
	p.enricher.EnrichInto(&req, entry)
	p.Commercial.InspectInto(&req, commercial)
	p.Behavioural.InspectInto(&req, behavioural)
}

// Enrich converts one log entry into the Request form detectors consume,
// for callers that drive the detectors individually (e.g. to build serial
// deployment topologies).
func (p *DetectorPair) Enrich(entry Entry) Request {
	return p.enricher.Enrich(entry)
}

// Reset clears all detector state.
func (p *DetectorPair) Reset() {
	p.Commercial.Reset()
	p.Behavioural.Reset()
	p.enricher.Reset()
}

// Durable state plane: the pair's full detection state — both detectors'
// per-client histories plus the enrichment sequence counter — serialises
// through the versioned state codec, so session memory survives process
// restarts and long-running campaigns are judged across them. See
// internal/statecodec for the format and internal/pipeline for the
// equivalent Checkpoint/ResumeFrom on pipelines.

// tagPair opens a detector-pair block in a snapshot.
const tagPair uint16 = 0x5041

// SnapshotInto serialises the pair's state through a statecodec.Writer,
// for callers composing larger snapshots. Most callers want Snapshot.
func (p *DetectorPair) SnapshotInto(w *statecodec.Writer) error {
	return p.asSet().SnapshotInto(w)
}

// RestoreFrom rebuilds the pair's state from a snapshot written by a
// pair with the same detectors (names and configuration). On failure the
// pair is Reset — empty state, never a half-restored mix of one restored
// and one fresh detector.
func (p *DetectorPair) RestoreFrom(r *statecodec.Reader) error {
	return p.asSet().RestoreFrom(r)
}

// Snapshot writes the pair's full detection state to w as a versioned,
// checksummed container. The snapshot captures every per-client session
// history, so a replay resumed from it continues exactly where this
// process stopped.
func Snapshot(w io.Writer, pair *DetectorPair) error {
	sw := statecodec.NewWriter()
	if err := pair.SnapshotInto(sw); err != nil {
		return fmt.Errorf("divscrape: snapshot: %w", err)
	}
	if err := statecodec.Encode(w, sw); err != nil {
		return fmt.Errorf("divscrape: snapshot: %w", err)
	}
	return nil
}

// Resume builds a calibrated detector pair and restores the state
// Snapshot wrote. Wrong-version snapshots fail with a typed
// *statecodec.VersionError; corrupt ones with statecodec.ErrCorrupt or
// statecodec.ErrChecksum — never a panic.
func Resume(r io.Reader) (*DetectorPair, error) {
	pair, err := NewDetectorPair()
	if err != nil {
		return nil, err
	}
	sr, err := statecodec.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("divscrape: resume: %w", err)
	}
	if err := pair.RestoreFrom(sr); err != nil {
		return nil, fmt.Errorf("divscrape: resume: %w", err)
	}
	return pair, nil
}

// SnapshotSet writes a detector set's full detection state to w in the
// same container format Snapshot uses; a default set's snapshot is
// byte-identical to the pair's.
func SnapshotSet(w io.Writer, set *DetectorSet) error {
	sw := statecodec.NewWriter()
	if err := set.SnapshotInto(sw); err != nil {
		return fmt.Errorf("divscrape: snapshot: %w", err)
	}
	if err := statecodec.Encode(w, sw); err != nil {
		return fmt.Errorf("divscrape: snapshot: %w", err)
	}
	return nil
}

// ResumeSet builds a calibrated detector set for names (default set when
// empty) and restores the state SnapshotSet — or, for the default pair of
// detectors, Snapshot — wrote. Failure modes match Resume.
func ResumeSet(r io.Reader, names ...string) (*DetectorSet, error) {
	set, err := NewDetectorSet(names...)
	if err != nil {
		return nil, err
	}
	sr, err := statecodec.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("divscrape: resume: %w", err)
	}
	if err := set.RestoreFrom(sr); err != nil {
		return nil, fmt.Errorf("divscrape: resume: %w", err)
	}
	return set, nil
}

// SnapshotVersionError is the typed failure a snapshot written by an
// incompatible format version resumes with (errors.As to inspect both
// versions).
type SnapshotVersionError = statecodec.VersionError

// Snapshot decode failures, re-exported for errors.Is without importing
// the internal codec.
var (
	// ErrSnapshotCorrupt reports structurally invalid snapshot contents.
	ErrSnapshotCorrupt = statecodec.ErrCorrupt
	// ErrSnapshotChecksum reports a snapshot whose payload was damaged.
	ErrSnapshotChecksum = statecodec.ErrChecksum
)

// DetectorConfusion is one detector's labelled confusion matrix inside a
// Summary, tagged with the detector's name so N-way summaries stay
// self-describing.
type DetectorConfusion struct {
	// Name is the detector's Name().
	Name string
	// Confusion is the labelled confusion matrix; it stays zero when the
	// stream carries no labels.
	Confusion Confusion
}

// Summary is the outcome of analysing one traffic stream with a detector
// set. The zero value is usable only as a Merge target.
type Summary struct {
	// Total is the number of requests analysed.
	Total uint64
	// Contingency is the paper's Table 2 over the stream for the first
	// two detectors in inspection order (A = Detectors[0], B =
	// Detectors[1] — the commercial and behavioural roles of the default
	// pair). Larger sets still report this leading pair here; the E-series
	// experiments compute the full pairwise tables.
	Contingency Contingency
	// Detectors holds one labelled confusion matrix per detector, in
	// inspection order.
	Detectors []DetectorConfusion
	// Labelled reports whether ground truth was available.
	Labelled bool
}

// newSummary builds an empty summary shaped for the named detectors.
func newSummary(names []string, labelled bool) *Summary {
	s := &Summary{Labelled: labelled, Detectors: make([]DetectorConfusion, len(names))}
	for i, n := range names {
		s.Detectors[i].Name = n
	}
	return s
}

// record folds one request's verdicts (one per detector, in inspection
// order) into the summary.
func (s *Summary) record(verdicts []Verdict, malicious bool) {
	s.Total++
	if len(verdicts) >= 2 {
		s.Contingency.Add(verdicts[0].Alert, verdicts[1].Alert)
	}
	if s.Labelled {
		for i := range verdicts {
			s.Detectors[i].Confusion.Add(verdicts[i].Alert, malicious)
		}
	}
}

// Commercial returns the first detector's labelled confusion matrix — the
// pair-shaped view the reports print. Zero when the summary holds no
// detectors.
func (s *Summary) Commercial() Confusion { return s.confusionAt(0) }

// Behavioural returns the second detector's labelled confusion matrix.
// Zero when the summary holds fewer than two detectors.
func (s *Summary) Behavioural() Confusion { return s.confusionAt(1) }

func (s *Summary) confusionAt(i int) Confusion {
	if i < len(s.Detectors) {
		return s.Detectors[i].Confusion
	}
	return Confusion{}
}

// ConfusionOf returns the named detector's labelled confusion matrix.
func (s *Summary) ConfusionOf(name string) (Confusion, bool) {
	for i := range s.Detectors {
		if s.Detectors[i].Name == name {
			return s.Detectors[i].Confusion, true
		}
	}
	return Confusion{}, false
}

// Merge folds another summary's counts into s: totals and every
// per-detector table add, position by position (Labelled is the caller's
// call — it describes the stream, not the counts). The relaxed analysis
// entry points use it to combine per-shard partial summaries; every
// counted field is commutative, so the fold order does not matter.
// Detector slots s does not yet have are adopted wholesale, so merging
// into a zero Summary copies o — the property the reflection test in
// divscrape_merge_test.go pins for every counted field.
func (s *Summary) Merge(o *Summary) {
	s.Total += o.Total
	s.Contingency.Merge(o.Contingency)
	for i := range o.Detectors {
		if i >= len(s.Detectors) {
			s.Detectors = append(s.Detectors, o.Detectors[i])
			continue
		}
		s.Detectors[i].Confusion.Merge(o.Detectors[i].Confusion)
	}
}

// AnalyzeSet streams a generator's traffic through a detector set and
// summarises alerting diversity and labelled accuracy.
func AnalyzeSet(gen *Generator, set *DetectorSet) (*Summary, error) {
	s := newSummary(set.Names(), true)
	verdicts := make([]Verdict, set.Len())
	err := gen.Run(func(ev Event) error {
		set.InspectInto(ev.Entry, verdicts)
		s.record(verdicts, ev.Label.Malicious())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("divscrape: analyze: %w", err)
	}
	return s, nil
}

// Analyze is AnalyzeSet on the paper's pair.
func Analyze(gen *Generator, pair *DetectorPair) (*Summary, error) {
	return AnalyzeSet(gen, pair.asSet())
}

// AnalyzeLogSet streams an access-log file through a detector set.
// Malformed lines are skipped. No labels are available from a raw log,
// so the summary's confusion matrices stay zero.
func AnalyzeLogSet(r io.Reader, set *DetectorSet) (*Summary, error) {
	s := newSummary(set.Names(), false)
	verdicts := make([]Verdict, set.Len())
	lr := logfmt.NewReader(r, logfmt.ReaderConfig{Policy: logfmt.Skip})
	var e Entry
	for {
		if err := lr.NextInto(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("divscrape: analyze log: %w", err)
		}
		set.InspectInto(e, verdicts)
		s.record(verdicts, false)
	}
	return s, nil
}

// AnalyzeLog is AnalyzeLogSet on the paper's pair.
func AnalyzeLog(r io.Reader, pair *DetectorPair) (*Summary, error) {
	return AnalyzeLogSet(r, pair.asSet())
}

// DefaultFactories returns one Factory per detector of the calibrated pair
// (commercial first, behavioural second) — the detector list the sharded
// analysis entry points and cmd/scrapedetect hand to the pipeline.
func DefaultFactories() []Factory {
	fs, err := FactoriesFor()
	if err != nil {
		panic(err) // unreachable: DefaultDetectors are always registered
	}
	return fs
}

// newRelaxedPipeline builds the named detectors as a ShardedRelaxed
// pipeline.
func newRelaxedPipeline(shards int, names []string) (*pipeline.Pipeline, error) {
	factories, err := FactoriesFor(names...)
	if err != nil {
		return nil, err
	}
	return pipeline.New(pipeline.Config{
		Factories:  factories,
		Reputation: iprep.BuildFeed(),
		Mode:       pipeline.ShardedRelaxed,
		Shards:     shards,
	})
}

// AnalyzeShardedRelaxedSet is AnalyzeSet on the sharded pipeline: the
// generated stream is partitioned by client IP across shards (0 selects
// GOMAXPROCS), each with private instances of the named detectors (none
// selects DefaultDetectors), and shards drain into private partial
// summaries that are folded together at the end. Every accumulated
// quantity is a commutative count keyed by the event's sequence number,
// so the summary is identical to AnalyzeSet's — relaxing delivery order
// trades away only the cross-client interleaving, which no table depends
// on. The events are materialised first so ground-truth labels can be
// joined back by sequence number.
func AnalyzeShardedRelaxedSet(gen *Generator, shards int, names ...string) (*Summary, error) {
	events, err := gen.Generate()
	if err != nil {
		return nil, fmt.Errorf("divscrape: analyze relaxed: generate: %w", err)
	}
	pipe, err := newRelaxedPipeline(shards, names)
	if err != nil {
		return nil, fmt.Errorf("divscrape: analyze relaxed: %w", err)
	}
	partials := make([]*Summary, pipe.Shards())
	sinks := make([]pipeline.Sink, pipe.Shards())
	for i := range sinks {
		part := newSummary(pipe.Detectors(), true)
		partials[i] = part
		sinks[i] = func(d pipeline.Decision) error {
			part.record(d.Verdicts, events[d.Req.Seq].Label.Malicious())
			return nil
		}
	}
	i := 0
	src := func() (Entry, error) {
		if i >= len(events) {
			return Entry{}, io.EOF
		}
		e := events[i].Entry
		i++
		return e, nil
	}
	if err := pipe.RunRelaxed(context.Background(), src, sinks); err != nil {
		return nil, fmt.Errorf("divscrape: analyze relaxed: %w", err)
	}
	s := newSummary(pipe.Detectors(), true)
	for i := range partials {
		s.Merge(partials[i])
	}
	return s, nil
}

// AnalyzeShardedRelaxed is AnalyzeShardedRelaxedSet on the paper's pair.
func AnalyzeShardedRelaxed(gen *Generator, shards int) (*Summary, error) {
	return AnalyzeShardedRelaxedSet(gen, shards)
}

// AnalyzeLogShardedRelaxedSet is AnalyzeLogSet end to end on the
// parallel plane: a chunked ParallelReader fans the parse across cores
// (malformed lines skipped), the relaxed pipeline fans detection across
// shards, and per-shard partial summaries merge at the end. The
// contingency table is identical to AnalyzeLogSet's.
func AnalyzeLogShardedRelaxedSet(r io.Reader, shards int, names ...string) (*Summary, error) {
	pipe, err := newRelaxedPipeline(shards, names)
	if err != nil {
		return nil, fmt.Errorf("divscrape: analyze log relaxed: %w", err)
	}
	partials := make([]*Summary, pipe.Shards())
	sinks := make([]pipeline.Sink, pipe.Shards())
	for i := range sinks {
		part := newSummary(pipe.Detectors(), false)
		partials[i] = part
		sinks[i] = func(d pipeline.Decision) error {
			part.record(d.Verdicts, false)
			return nil
		}
	}
	lr := logfmt.NewParallelReader(r, logfmt.ParallelConfig{Policy: logfmt.Skip})
	defer lr.Close()
	src := func() (Entry, error) {
		var e Entry
		err := lr.NextInto(&e)
		return e, err
	}
	if err := pipe.RunRelaxed(context.Background(), src, sinks); err != nil {
		return nil, fmt.Errorf("divscrape: analyze log relaxed: %w", err)
	}
	s := newSummary(pipe.Detectors(), false)
	for i := range partials {
		s.Merge(partials[i])
	}
	return s, nil
}

// AnalyzeLogShardedRelaxed is AnalyzeLogShardedRelaxedSet on the paper's
// pair.
func AnalyzeLogShardedRelaxed(r io.Reader, shards int) (*Summary, error) {
	return AnalyzeLogShardedRelaxedSet(r, shards)
}

// WriteDataset streams a generation run to an access log and label
// sidecar, returning the request count.
func WriteDataset(gen *Generator, logW, labelW io.Writer) (uint64, error) {
	return workload.WriteDataset(gen, logW, labelW)
}

// Mitigation: the response plane. Detection decides who is scraping;
// mitigation decides what to do about it. The engine folds adjudicated
// verdicts into per-client enforcement state and walks the
// Allow → Tarpit → Challenge → Block ladder; httpguard embeds one engine
// per traffic shard, and the same types drive offline what-if replays.
type (
	// MitigationPolicy parameterises the response engine.
	MitigationPolicy = mitigate.Policy
	// MitigationAction is one rung of the enforcement ladder.
	MitigationAction = mitigate.Action
	// MitigationAssessment is the adjudicated input to the engine.
	MitigationAssessment = mitigate.Assessment
	// MitigationDecision is the engine's per-request output.
	MitigationDecision = mitigate.Decision
	// MitigationEngine folds the decision stream into enforcement state.
	MitigationEngine = mitigate.Engine
)

// Enforcement ladder rungs, re-exported for callers switching on
// MitigationDecision.Action.
const (
	MitigationAllow     = mitigate.Allow
	MitigationTarpit    = mitigate.Tarpit
	MitigationChallenge = mitigate.Challenge
	MitigationBlock     = mitigate.Block
)

// Live operation: the streaming ingestion plane. A Follower tails an
// actively written access log (surviving rotation and truncation) as a
// pull-based entry source with bounded memory; a Sweeper drives windowed
// TTL eviction across every stateful layer so a long-running deployment's
// memory stays O(clients active in the window); a MetricsRegistry is the
// zero-allocation observability surface (Prometheus text + JSON). See
// `scrapedetect -follow -metrics-addr` for the assembled service and
// httpguard.Guard.DebugHandler for the inline-middleware equivalent.
type (
	// Follower tails a log file as a continuous entry source.
	Follower = stream.Follower
	// FollowerConfig parameterises NewFollower.
	FollowerConfig = stream.FollowerConfig
	// FollowerStats is the follower's progress counter snapshot.
	FollowerStats = stream.FollowerStats
	// Sweeper drives windowed eviction across registered layers.
	Sweeper = stream.Sweeper
	// Evictable is the hook a sweeper drives: drop state untouched since
	// the cutoff. Implemented by the detectors, mitigation engines,
	// session stores and the reputation overlay.
	Evictable = detector.Evictable
	// MetricsRegistry collects counters/gauges/histograms and encodes
	// them allocation-free.
	MetricsRegistry = metrics.Registry
)

// NewFollower opens a tail-style follower on a log path; the file may not
// exist yet (a rotation target).
func NewFollower(cfg FollowerConfig) (*Follower, error) { return stream.NewFollower(cfg) }

// NewSweeper builds a windowed-eviction sweeper; drive it with Observe
// (event time) or Tick (wall clock). A window at or above every
// registered layer's idle timeout keeps eviction verdict-neutral.
func NewSweeper(window, every time.Duration) (*Sweeper, error) {
	return stream.NewSweeper(window, every, nil)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// EvictBefore proactively drops both detectors' per-client state
// untouched since cutoff, returning the number of sessions evicted —
// the pair-level face of the windowed eviction hook. Verdict-neutral
// while cutoff trails stream time by at least the detectors' idle
// timeouts.
func (p *DetectorPair) EvictBefore(cutoff time.Time) int {
	return p.asSet().EvictBefore(cutoff)
}

// NewMitigationEngine validates the policy and builds an engine. Engines
// are single-threaded; shard them alongside detector state.
func NewMitigationEngine(p MitigationPolicy) (*MitigationEngine, error) {
	return mitigate.New(p)
}

// ObservePolicy returns the non-interfering response policy.
func ObservePolicy() MitigationPolicy { return mitigate.Observe() }

// TagPolicy returns the tag-only response policy.
func TagPolicy() MitigationPolicy { return mitigate.Tag() }

// StaticBlockPolicy returns the classic binary block switch.
func StaticBlockPolicy(confirmedOnly bool) MitigationPolicy {
	return mitigate.StaticBlock(confirmedOnly)
}

// GraduatedPolicy returns the calibrated escalation-ladder policy.
func GraduatedPolicy() MitigationPolicy { return mitigate.Graduated() }
