package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/noc"
	"repro/internal/workload"
)

// observerScenario builds a small attacked campaign for streaming tests.
func observerScenario(t *testing.T) (*System, Scenario) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 64
	cfg.MemTraffic = false
	cfg.Epochs = 8
	cfg.WarmupEpochs = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mix, err := workload.MixByName("mix-1")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := MixScenario(mix, 8)
	if err != nil {
		t.Fatal(err)
	}
	mesh := sys.Mesh()
	placement, err := attack.RingCluster(mesh, mesh.Coord(sys.ManagerNode()), 8, 2, sys.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	sc.Trojans = placement
	return sys, sc
}

// collector buffers every streamed sample.
type collector struct {
	samples []EpochSample
}

func (c *collector) ObserveEpoch(s EpochSample) { c.samples = append(c.samples, s) }

func TestObserverSamplesSumToReport(t *testing.T) {
	sys, sc := observerScenario(t)
	col := &collector{}
	rep, err := sys.RunContext(context.Background(), sc, col)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(col.samples) != sys.Config().Epochs {
		t.Fatalf("observed %d samples, want %d", len(col.samples), sys.Config().Epochs)
	}
	if len(rep.Epochs) != len(col.samples) {
		t.Fatalf("trace has %d records vs %d samples", len(rep.Epochs), len(col.samples))
	}
	var received, tampered, flagged uint64
	var grants int
	for i, s := range col.samples {
		if s.EpochRecord != rep.Epochs[i] {
			t.Errorf("sample %d record %+v != trace record %+v", i, s.EpochRecord, rep.Epochs[i])
		}
		received += s.RequestsReceived
		tampered += s.RequestsTampered
		flagged += s.FlaggedRequests
		grants += s.GrantsIssued
	}
	var wantReceived, wantTampered uint64
	for _, rec := range rep.Epochs {
		wantReceived += rec.RequestsReceived
		wantTampered += rec.RequestsTampered
	}
	if received != wantReceived || tampered != wantTampered {
		t.Errorf("sample sums (recv %d, tampered %d) != report sums (%d, %d)",
			received, tampered, wantReceived, wantTampered)
	}
	if flagged != rep.FlaggedRequests {
		t.Errorf("flagged sum %d != report %d", flagged, rep.FlaggedRequests)
	}
	// Every issued grant is eventually delivered (false-data Trojans do
	// not destroy packets), so the streamed grant count must match the
	// network's POWER_GRANT deliveries after the final drain.
	if uint64(grants) != rep.Net.DeliveredBy[noc.TypePowerGrant] {
		t.Errorf("grants issued %d != grants delivered %d", grants, rep.Net.DeliveredBy[noc.TypePowerGrant])
	}
	last := col.samples[len(col.samples)-1]
	if last.InfectionRunning <= 0 {
		t.Error("running infection rate never rose above zero under an active attack")
	}
	if tampered == 0 {
		t.Error("streamed samples saw no tampered requests under an active attack")
	}
}

// cancellingObserver cancels the run's context after a fixed number of
// epochs — the "live dashboard pulls the plug" pattern.
type cancellingObserver struct {
	cancel context.CancelFunc
	after  int
	seen   int
}

func (c *cancellingObserver) ObserveEpoch(EpochSample) {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
}

func TestObserverCancelStopsRunPromptly(t *testing.T) {
	sys, sc := observerScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancellingObserver{cancel: cancel, after: 3}
	start := time.Now()
	rep, err := sys.RunContext(ctx, sc, obs)
	if rep != nil {
		t.Fatal("cancelled run must not return a report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if obs.seen > obs.after {
		t.Errorf("observed %d epochs after cancelling at %d", obs.seen, obs.after)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v, want prompt stop", elapsed)
	}
}

func TestRunPairContextCancelled(t *testing.T) {
	sys, sc := observerScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the pool must not run a single epoch
	col := &collector{}
	_, _, err := sys.RunPairContext(ctx, sc, col)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(col.samples) != 0 {
		t.Errorf("cancelled pair streamed %d samples", len(col.samples))
	}
}

func TestMultiObserverFansOut(t *testing.T) {
	sys, sc := observerScenario(t)
	a, b := &collector{}, &collector{}
	if _, err := sys.RunContext(context.Background(), sc, MultiObserver{a, b}); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(a.samples) == 0 || len(a.samples) != len(b.samples) {
		t.Fatalf("fan-out mismatch: %d vs %d samples", len(a.samples), len(b.samples))
	}
}

func TestRunWithoutObserverUnchanged(t *testing.T) {
	// Run and RunContext(nil observer) must agree bit-for-bit: streaming
	// must not perturb the simulation.
	sys, sc := observerScenario(t)
	plain, err := sys.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	observed, err := sys.RunContext(context.Background(), sc, col)
	if err != nil {
		t.Fatal(err)
	}
	if plain.InfectionMeasured != observed.InfectionMeasured || plain.Net != observed.Net {
		t.Error("observed run diverged from plain run")
	}
}
