package check

import (
	"math/rand"
	"testing"

	"selectps/internal/datasets"
	"selectps/internal/overlay"
	"selectps/internal/pubsub"
	"selectps/internal/ring"
)

// TestAllSystemsSatisfyInvariants is the cross-system integration check:
// every evaluated overlay must pass structure, reachability and routing
// validation, fully online and after a churn+repair cycle.
func TestAllSystemsSatisfyInvariants(t *testing.T) {
	g := datasets.Facebook.Generate(300, 1)
	for _, kind := range pubsub.AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			o, err := pubsub.Build(kind, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if r := All(o, 100, rand.New(rand.NewSource(3))); !r.Ok() {
				t.Fatalf("online invariants violated:\n%s", r)
			}
			// Churn 20% of peers, repair, re-check structure. (Routing under
			// churn is only guaranteed for SELECT; Fig. 6 measures that.)
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 60; i++ {
				o.SetOnline(overlay.PeerID(rng.Intn(300)), false)
			}
			o.Repair()
			if r := Structure(o); !r.Ok() {
				t.Fatalf("post-churn structure violated:\n%s", r)
			}
		})
	}
}

func TestSelectRoutesUnderChurn(t *testing.T) {
	g := datasets.Facebook.Generate(300, 5)
	o, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 90; i++ {
		o.SetOnline(overlay.PeerID(rng.Intn(300)), false)
	}
	o.Repair()
	if r := Routes(o, 150, rng); !r.Ok() {
		t.Fatalf("SELECT routing under churn violated:\n%s", r)
	}
}

// fakeOverlay is a minimal hand-built overlay for negative tests.
type fakeOverlay struct{ *overlay.Base }

func newFake(n int) *fakeOverlay {
	f := &fakeOverlay{overlay.NewBase("fake", n)}
	for i := 0; i < n; i++ {
		f.SetPosition(overlay.PeerID(i), ring.HashUint64(uint64(i)))
	}
	return f
}

func TestStructureCatchesViolations(t *testing.T) {
	f := newFake(3)
	// Duplicate link injected via SetLinks (AddLink would dedupe).
	f.SetLinks(0, []overlay.PeerID{1, 1})
	r := Structure(f)
	if r.Ok() {
		t.Fatal("duplicate link not caught")
	}
	f2 := newFake(2)
	f2.SetLinks(0, []overlay.PeerID{0}) // self link
	if Structure(f2).Ok() {
		t.Fatal("self link not caught")
	}
	f3 := newFake(2)
	f3.SetLinks(0, []overlay.PeerID{5}) // out of range
	if Structure(f3).Ok() {
		t.Fatal("out-of-range link not caught")
	}
	f4 := newFake(3)
	f4.SetPosition(2, f4.Position(0)) // two peers on one identifier
	if Structure(f4).Ok() {
		t.Fatal("shared position not caught")
	}
}

func TestReachabilityCatchesPartition(t *testing.T) {
	f := newFake(4)
	f.AddLink(0, 1)
	f.AddLink(2, 3) // two components
	if Reachability(f).Ok() {
		t.Fatal("partition not caught")
	}
	f.AddLink(1, 2)
	if r := Reachability(f); !r.Ok() {
		t.Fatalf("connected overlay flagged:\n%s", r)
	}
}

func TestReachabilityIgnoresOffline(t *testing.T) {
	f := newFake(3)
	f.AddLink(0, 1)
	f.SetOnline(2, false) // isolated but offline: fine
	if r := Reachability(f); !r.Ok() {
		t.Fatalf("offline isolate flagged:\n%s", r)
	}
}

func TestRoutesCatchesDeadEnd(t *testing.T) {
	f := newFake(3)
	f.AddLink(0, 1) // 1 and 2 have no outgoing links; many routes dead-end
	r := Routes(f, 50, rand.New(rand.NewSource(8)))
	if r.Ok() {
		t.Fatal("dead-end routing not caught")
	}
}

func TestTreeChecks(t *testing.T) {
	tr := overlay.NewTree(0)
	tr.AddPath(overlay.Path{0, 1, 2})
	if r := Tree(tr); !r.Ok() {
		t.Fatalf("valid tree flagged:\n%s", r)
	}
}

func TestEmptyOverlay(t *testing.T) {
	f := newFake(0)
	if r := All(f, 10, rand.New(rand.NewSource(9))); !r.Ok() {
		t.Fatalf("empty overlay flagged:\n%s", r)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{}
	if r.String() != "ok" {
		t.Errorf("empty report = %q", r.String())
	}
	r.addf("boom %d", 7)
	if r.Ok() || r.String() != "boom 7\n" {
		t.Errorf("report = %q ok=%v", r.String(), r.Ok())
	}
}
