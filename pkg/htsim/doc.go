// Package htsim is the public SDK for the hardware-Trojan power-budgeting
// simulator: a composable façade over the internal chip model that wires
// every axis of a scenario — topology, routing, budget allocator,
// manager-side defense, Trojan strategy and attack mode, workload mix,
// placement — through named, discoverable plugin registries instead of
// hand-edited config structs.
//
// A simulation is assembled with functional options and run with a
// context:
//
//	sim, err := htsim.New(
//		htsim.WithCores(256),
//		htsim.WithTopology("torus"),
//		htsim.WithAllocator("pi"),
//		htsim.WithDefense("history-guard"),
//	)
//	if err != nil { ... }
//	sc, err := htsim.MixScenario("mix-1", 64)
//	trojans, err := sim.Trojans("ring", 16, 1)
//	sc.Trojans = trojans
//	report, err := sim.Run(ctx, sc)
//
// Cancelling the context stops the simulation promptly, mid-epoch
// included, and cancellation propagates through the internal worker pool
// that fans out paired and multi-trial runs. Long-running consumers
// stream typed per-epoch samples by registering an Observer
// (WithObserver) instead of waiting for the end-of-run Report.
//
// One attacked-versus-clean campaign can also be described as data: a
// Request names every axis and scalar as a JSON-tagged field, Normalize
// fills its defaults, Validate checks it, and Run executes it beside its
// clean baseline. The htsim command's flags fill a Request, and the
// simulation service's POST /v1/sims decodes one (ParseRequest), so both
// front ends share one set of defaults, checks and run path:
//
//	req, err := htsim.ParseRequest([]byte(`{"cores":64,"threads":15,"infection":0.5}`))
//	if err != nil { ... }
//	sim, attacked, cmp, err := req.Run(ctx)
//
// Every plugin axis is enumerable: Axes lists the registries and their
// registered names, which is also what `htcampaign list` prints and what
// the documentation gate cross-checks, so a plugin registered anywhere in
// the tree is automatically discoverable here, in the CLIs, and in the
// campaign spec format.
package htsim
