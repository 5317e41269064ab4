package node

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"selectps/internal/faultnet"
	"selectps/internal/obs"
	"selectps/internal/transport"
)

// TestGoroutineBudgetAtScale is the runtime-scale gate (DESIGN.md §11):
// a thousand live peers cost S shard loops plus whatever the transport
// holds in flight — never a goroutine per node. The 4× slack on the shard
// term covers runtime helpers and transient timer goroutines; a per-node
// leak blows through it at once.
func TestGoroutineBudgetAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1000 cluster")
	}
	const n, seed = 1000, 1
	g, ov := buildOverlay(t, n, seed)
	baseline := runtime.NumGoroutine()
	sw := transport.NewSwitchboard(n, 1024)
	// Emulated latency holds one pending timer per in-flight message; each
	// becomes a short-lived goroutine when it fires.
	sw.Latency = func(from, to int32) time.Duration { return time.Millisecond }
	// MaintainEvery stays off, as in the soak CI configs: live maintenance
	// on an already-converged ring sheds links, which under the race
	// detector costs the last delivery or two of a 129-subscriber feed.
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: sw, Seed: seed,
		HeartbeatEvery: 200 * time.Millisecond,
		GossipEvery:    200 * time.Millisecond,
		RetryBase:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	for i := 0; i < 20; i++ {
		seq := publishSize(c.Nodes[pub], 1000)
		if got, ok := await(c, pub, seq, subs, 30*time.Second); !ok {
			t.Fatalf("publication %d: %d/%d subscribers delivered", i, got, len(subs))
		}
	}
	live, inflight := runtime.NumGoroutine(), sw.InFlight()
	if budget := baseline + 4*c.Shards() + inflight; live > budget {
		t.Fatalf("%d live goroutines at n=%d, budget %d (baseline %d + 4×%d shards + %d in flight)",
			live, n, budget, baseline, c.Shards(), inflight)
	}
}

// TestFaultnetClusterUsesBatchIngress: a chaos-wrapped cluster drains the
// same bulk mailbox an unwrapped one does — the switchboard counts one
// ingress batch per delivered frame, and it can only do so for peers
// bound through the wrapper's BindInboxBatch.
func TestFaultnetClusterUsesBatchIngress(t *testing.T) {
	const n, seed = 80, 3
	g, ov := buildOverlay(t, n, seed)
	met := obs.New()
	inner := transport.NewSwitchboard(n, 1024)
	inner.Obs = met
	fn := faultnet.Wrap(inner, n, faultnet.Config{DropProb: 0.1}, seed)
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: fn, Seed: seed, Obs: met,
		RetryBase: 10 * time.Millisecond, RetryBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	seq := publishSize(c.Nodes[pub], 1000)
	if got, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
		t.Fatalf("%d/%d subscribers delivered under 10%% drops", got, len(subs))
	}
	if met.Get(obs.CIngressBatch) == 0 {
		t.Fatal("ingress_batch = 0: the faultnet-wrapped cluster did not take the bulk ingress path")
	}
}

// perEnvelopeOnly implements transport.Transport and nothing else.
type perEnvelopeOnly struct{ transport.Transport }

// TestStartRejectsTransportWithoutBatchIngress: the runtime has one
// ingress path; a transport that cannot feed it is a configuration
// error at Start, bare or behind the fault middleware.
func TestStartRejectsTransportWithoutBatchIngress(t *testing.T) {
	const n, seed = 20, 4
	g, ov := buildOverlay(t, n, seed)
	bare := perEnvelopeOnly{transport.NewSwitchboard(n, 64)}
	for name, tr := range map[string]transport.Transport{
		"bare":    bare,
		"wrapped": faultnet.Wrap(bare, n, faultnet.Config{}, seed),
	} {
		c, err := Start(Options{Graph: g, Overlay: ov, Transport: tr, Seed: seed})
		if err == nil {
			shutdown(t, c)
			t.Fatalf("%s: Start accepted a transport without BatchInboxMux", name)
		}
		if !strings.Contains(err.Error(), "BindInboxBatch") && !strings.Contains(err.Error(), "BatchInboxMux") {
			t.Fatalf("%s: error does not name the missing capability: %v", name, err)
		}
		tr.Close()
	}
}
