package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"divscrape/internal/cluster"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/sentinel"
)

func TestClusterFlagValidation(t *testing.T) {
	var sb strings.Builder
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-cluster-listen", "127.0.0.1:9301"}, "-follow"},
		{[]string{"-follow", "-cluster-listen", "127.0.0.1:9301"}, "-mitigate"},
		{[]string{"-follow", "-mitigate", "graduated", "-cluster-listen", "127.0.0.1:9301"}, "-cluster-peers"},
		// A peers list that reduces to only the node itself is as empty.
		{[]string{"-follow", "-mitigate", "graduated",
			"-cluster-listen", "127.0.0.1:9301",
			"-cluster-peers", " , 127.0.0.1:9301 ,"}, "-cluster-peers"},
		{[]string{"-cluster-degraded", "fail-sideways"}, "-cluster-degraded"},
	}
	for _, tc := range cases {
		err := run(&sb, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error mentioning %q", tc.args, err, tc.want)
		}
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" a:1, b:2 ,, c:3 ,a:1", "a:1")
	if len(got) != 2 || got[0] != "b:2" || got[1] != "c:3" {
		t.Fatalf("splitPeers = %v, want [b:2 c:3]", got)
	}
	if splitPeers("", "a:1") != nil {
		t.Fatal("empty list must parse to nil")
	}
}

func TestWarnWildcardListen(t *testing.T) {
	cases := []struct {
		listen string
		warn   bool
	}{
		{":9301", true},
		{"0.0.0.0:9301", true},
		{"[::]:9301", true},
		{"127.0.0.1:9301", false},
		{"node-a.internal:9301", false},
		{"not an address", false}, // net.Listen reports this itself
	}
	for _, tc := range cases {
		var got []string
		warnWildcardListen(tc.listen, func(f string, a ...any) {
			got = append(got, fmt.Sprintf(f, a...))
		})
		if warned := len(got) > 0; warned != tc.warn {
			t.Errorf("warnWildcardListen(%q) warned=%v (%v), want %v", tc.listen, warned, got, tc.warn)
		}
	}
}

// newClusterEngine builds a graduated engine plus its locked backend.
func newClusterEngine(t *testing.T) (*mitigate.Engine, *engineBackend) {
	t.Helper()
	eng, err := mitigate.New(mitigate.Graduated())
	if err != nil {
		t.Fatal(err)
	}
	return eng, newEngineBackend([]*mitigate.Engine{eng}, iprep.BuildFeed())
}

// TestClusterHTTPReplication proves the CLI deployment shape end to end:
// two engine backends joined by real loopback HTTP through the cluster
// node, transport and handler. A ladder climbed on one node and an
// overlay entry pushed there both appear on the peer after one delta
// interval. The clock is an atomic the test advances; ticks are driven
// by hand, so nothing here waits on the wall clock.
func TestClusterHTTPReplication(t *testing.T) {
	base := time.Unix(1520700000, 0)
	var nowNS atomic.Int64
	nowNS.Store(base.UnixNano())
	nowFn := func() time.Time { return time.Unix(0, nowNS.Load()) }

	eng1, be1 := newClusterEngine(t)
	_, be2 := newClusterEngine(t)

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, addr2 := ln1.Addr().String(), ln2.Addr().String()

	newNode := func(id, peer string, be *engineBackend) *cluster.Node {
		n, err := cluster.New(cluster.Config{
			ID:        id,
			Peers:     []string{peer},
			Backend:   be,
			Transport: cluster.NewHTTPTransport(2 * time.Second),
			Now:       nowFn,
			Rand:      func() float64 { return 0.5 },
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	node1 := newNode(addr1, addr2, be1)
	node2 := newNode(addr2, addr1, be2)

	srv1 := &http.Server{Handler: cluster.Handler(node1)}
	srv2 := &http.Server{Handler: cluster.Handler(node2)}
	go func() { _ = srv1.Serve(ln1) }()
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() {
		shutdownServer(srv1, time.Second)
		shutdownServer(srv2, time.Second)
	})

	// Climb the ladder for one client on node 1 and learn an overlay
	// entry there, through the same locked paths the sink uses.
	const client = "203.0.113.9"
	be1.shards[0].mu.Lock()
	for i := 0; i < 3; i++ {
		eng1.Apply(client, nowFn().Add(time.Duration(i)*time.Millisecond),
			mitigate.Assessment{Alerted: true, Confirmed: true, Score: 0.9})
	}
	be1.shards[0].mu.Unlock()
	be1.MergeOverlayEntry(iprep.TempEntry{
		Prefix: iprep.Prefix{IP: 0xC6336407, Bits: 32},
		Cat:    iprep.KnownScraper,
		Until:  base.Add(time.Hour),
	})

	node1.Tick(nowFn())
	node2.Tick(nowFn())
	nowNS.Store(base.Add(1100 * time.Millisecond).UnixNano())
	node1.Tick(nowFn()) // ships the delta to node 2 synchronously
	node2.Tick(nowFn())

	var levels []mitigate.Action
	be2.LadderDigestsSince(time.Time{}, func(d mitigate.ClientDigest) {
		if d.Key == client {
			levels = append(levels, d.Level)
		}
	})
	if len(levels) != 1 || levels[0] != mitigate.Block {
		t.Fatalf("peer ladder for %s = %v, want [Block]", client, levels)
	}
	found := false
	be2.OverlayEntries(func(e iprep.TempEntry) {
		if e.Prefix.IP == 0xC6336407 && e.Cat == iprep.KnownScraper {
			found = true
		}
	})
	if !found {
		t.Fatal("overlay entry did not replicate to the peer")
	}
	if st := node2.Status(); st.DeltasReceived == 0 || st.EntriesApplied < 2 {
		t.Fatalf("peer status %+v, want received deltas and applied entries", st)
	}
}

// TestHealthEndpointClusterSection: wiring a node into the live-metrics
// surface surfaces its membership snapshot at /debug/divscrape/health.
func TestHealthEndpointClusterSection(t *testing.T) {
	sen, err := sentinel.New(sentinel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.Config{
		Detectors:  []detector.Detector{sen},
		Reputation: iprep.BuildFeed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, be := newClusterEngine(t)
	node, err := cluster.New(cluster.Config{
		ID:        "node-a:9301",
		Peers:     []string{"node-b:9301"},
		Backend:   be,
		Transport: cluster.NewHTTPTransport(time.Second),
		Now:       func() time.Time { return time.Unix(1520700000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}

	live := newLiveMetrics(nil, pipe, nil, nil)
	node.RegisterMetrics(live.reg)
	live.wireCluster(node)
	srv := httptest.NewServer(live.handler("seq", 1, true, time.Hour))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/divscrape/health")
	if err != nil {
		t.Fatal(err)
	}
	var doc healthDoc
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if doc.Cluster == nil {
		t.Fatal("health document missing cluster section")
	}
	if doc.Cluster.ID != "node-a:9301" || doc.Cluster.Members != 2 {
		t.Fatalf("cluster section = %+v", doc.Cluster)
	}

	res, err = srv.Client().Get(srv.URL + "/debug/divscrape/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := bodyString(t, res.Body)
	res.Body.Close()
	if !strings.Contains(body, "divscrape_cluster_deltas_sent_total") {
		t.Fatalf("metrics page missing cluster instruments:\n%.400s", body)
	}
}
