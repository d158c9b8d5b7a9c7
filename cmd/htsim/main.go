// Command htsim runs a single hardware-Trojan power-budgeting campaign and
// prints the full report: per-application θ/Θ/Φ, infection rates, the
// attack effect Q, and NoC statistics. It is a thin front end over the
// pkg/htsim SDK: its flags fill one htsim.Request, the type POST /v1/sims
// decodes, so the command and the service share defaults and checks.
// Every axis flag (-topology, -allocator, -defense, -routing, -placement,
// -strategy, -mode, -mix) names a registered plugin, and the flag help
// enumerates the registry, so a newly registered plugin is immediately
// usable here. Tables are printed through the shared internal/results
// emitters.
//
// Examples:
//
//	htsim -print-config
//	htsim -mix mix-1 -threads 64 -infection 0.5
//	htsim -mix mix-4 -threads 64 -hts 16 -placement center -allocator greedy
//	htsim -topology torus -size 64 -hts 8 -placement ring -stream
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/pkg/htsim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		obs.Stderr().Error("htsim: fatal", "error", err)
		os.Exit(1)
	}
}

// choices renders a registry's names for flag help text.
func choices(names []string) string { return strings.Join(names, ", ") }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("htsim", flag.ContinueOnError)
	var req htsim.Request
	req.Normalize()
	printConfig := fs.Bool("print-config", false, "print the Table I configuration and exit")
	fs.IntVar(&req.Cores, "size", req.Cores, "system size (number of cores)")
	fs.StringVar(&req.Topology, "topology", req.Topology, "network topology: "+choices(htsim.Topologies()))
	fs.StringVar(&req.Mix, "mix", req.Mix, "benchmark mix: "+choices(htsim.Mixes()))
	fs.IntVar(&req.Threads, "threads", req.Threads, "threads per application")
	fs.IntVar(&req.HTs, "hts", req.HTs, "number of hardware Trojans")
	fs.StringVar(&req.Placement, "placement", req.Placement, "HT placement: "+choices(htsim.Placements()))
	infection := fs.Float64("infection", -1, "target infection rate (overrides -placement when ≥ 0)")
	fs.StringVar(&req.Allocator, "allocator", req.Allocator, "budget allocator: "+choices(htsim.Allocators()))
	fs.StringVar(&req.Defense, "defense", req.Defense, "manager-side defense: "+choices(htsim.Defenses()))
	fs.StringVar(&req.Strategy, "strategy", req.Strategy, "Trojan payload strategy: "+choices(htsim.TrojanStrategies()))
	fs.StringVar(&req.Mode, "mode", req.Mode, "attack class: "+choices(htsim.AttackModes()))
	fs.StringVar(&req.GM, "gm", req.GM, "global manager position: center or corner")
	fs.StringVar(&req.Routing, "routing", req.Routing, "routing algorithm (default by topology): "+choices(htsim.Routings()))
	fs.IntVar(&req.Epochs, "epochs", req.Epochs, "budgeting epochs")
	fs.Uint64Var(&req.EpochCycles, "epoch-cycles", req.EpochCycles, "cycles per epoch")
	fs.BoolVar(&req.Mem, "mem", req.Mem, "enable cache-hierarchy background traffic")
	trace := fs.Bool("trace", false, "print the per-epoch trace")
	stream := fs.Bool("stream", false, "stream per-epoch samples live while the campaign runs")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "random seed")
	fs.IntVar(&req.Workers, "parallel", req.Workers, "campaign workers (0 = one per CPU; 1 = sequential; results identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *infection >= 0 {
		req.Infection = infection
	}

	var opts []htsim.Option
	if *stream {
		opts = append(opts, htsim.WithObserver(&streamPrinter{}))
	}
	sim, sc, predicted, err := req.Prepare(opts...)
	if err != nil {
		return err
	}
	cfg := sim.Config()
	if *printConfig {
		t, err := core.ConfigTableFor(cfg)
		if err != nil {
			return err
		}
		return results.WriteText(os.Stdout, t)
	}
	if req.Infection != nil {
		fmt.Printf("placement for target infection %.2f: %d HTs (predicted %.3f)\n", *req.Infection, sc.Trojans.Size(), predicted)
	}

	attacked, baseline, err := sim.RunPair(ctx, sc)
	if err != nil {
		return err
	}
	cmp, err := htsim.Compare(attacked, baseline)
	if err != nil {
		return err
	}
	fmt.Printf("chip: %d cores, GM at node %d, budget %.1f W, allocator %s\n",
		cfg.Cores, sim.ManagerNode(), float64(attacked.ChipBudgetMW)/1000, cfg.Allocator.Name())
	if err := results.WriteText(os.Stdout, core.CampaignTableFor(cfg, attacked, cmp)); err != nil {
		return err
	}
	fmt.Printf("attack effect Q = %.3f (infection measured %.3f, predicted %.3f; %d requests tampered)\n",
		cmp.Q, attacked.InfectionMeasured, attacked.InfectionPredicted, attacked.Trojan.Modified)
	fmt.Printf("noc: %d packets delivered, avg POWER_REQ latency %.1f cycles\n",
		attacked.Net.Delivered, attacked.Net.AvgLatency(noc.TypePowerReq))
	if cfg.DualPathRequests {
		fmt.Printf("dual-path voter: %d pairs, %d mismatches, %d unpaired\n",
			attacked.DualPathPairs, attacked.DualPathMismatches, attacked.DualPathUnpaired)
	}
	if *trace {
		if err := results.WriteText(os.Stdout, &traceTable{cfg: cfg, rep: attacked}); err != nil {
			return err
		}
	}
	return nil
}

// streamPrinter prints each epoch sample as it arrives — the CLI face of
// the SDK's streaming Observer.
type streamPrinter struct{}

// ObserveEpoch implements htsim.Observer.
func (*streamPrinter) ObserveEpoch(s htsim.EpochSample) {
	state := "off"
	if s.TrojanActive {
		state = "ON"
	}
	fmt.Printf("epoch %2d  trojan %-3s  recv %3d  tampered %3d  grants %3d  infection %.3f\n",
		s.Epoch, state, s.RequestsReceived, s.RequestsTampered, s.GrantsIssued, s.InfectionRunning)
}

// traceTable renders the per-epoch trace through the shared emitters; it
// implements results.Table locally to show the interface is open to
// one-off views.
type traceTable struct {
	cfg core.Config
	rep *core.Report
}

// TableMeta implements results.Table.
func (t *traceTable) TableMeta() *results.Meta {
	params := struct {
		Cores     int    `json:"cores"`
		Allocator string `json:"allocator"`
		Epochs    int    `json:"epochs"`
		Seed      int64  `json:"seed"`
	}{t.cfg.Cores, t.cfg.Allocator.Name(), t.cfg.Epochs, t.cfg.Seed}
	m := results.NewMeta("run", "Per-epoch campaign trace", t.cfg.Seed, 0, params)
	return &m
}

// ColumnNames implements results.Table.
func (t *traceTable) ColumnNames() []string {
	return []string{"epoch", "active", "received", "tampered", "victim_level", "attacker_level"}
}

// RowValues implements results.Table.
func (t *traceTable) RowValues() [][]any {
	rows := make([][]any, len(t.rep.Epochs))
	for i, rec := range t.rep.Epochs {
		state := "off"
		if rec.TrojanActive {
			state = "ON"
		}
		rows[i] = []any{rec.Epoch, state, rec.RequestsReceived, rec.RequestsTampered,
			rec.VictimMeanLevel, rec.AttackerMeanLevel}
	}
	return rows
}
