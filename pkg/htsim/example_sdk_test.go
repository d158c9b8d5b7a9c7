package htsim_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/pkg/htsim"
)

// epochTicker streams per-epoch samples as they arrive: the hook a live
// dashboard or long-running service uses instead of waiting for the
// final report.
type epochTicker struct{}

// ObserveEpoch implements htsim.Observer.
func (epochTicker) ObserveEpoch(s htsim.EpochSample) {
	bar := ""
	for i := 0.0; i < s.InfectionRunning*20; i++ {
		bar += "#"
	}
	line := fmt.Sprintf("  epoch %2d  received %3d  tampered %3d  grants %3d  infection %.3f",
		s.Epoch, s.RequestsReceived, s.RequestsTampered, s.GrantsIssued, s.InfectionRunning)
	if bar != "" {
		line += " " + bar
	}
	fmt.Println(line)
}

// Example_sdk tours the plugin registries, functional options, and
// streaming observers in one program. It discovers every plugin axis,
// builds a wraparound-torus chip with a PI-controller allocator and a
// history-guard defense — a scenario the paper never ran, assembled
// purely from registered names — and watches the attack unfold live
// through a streaming per-epoch observer with a cancellable context.
//
// Run with:
//
//	go test ./pkg/htsim -run Example_sdk -v
func Example_sdk() {
	// 1. Discovery: every axis of the simulator is a named registry.
	fmt.Println("plugin axes:")
	for _, axis := range htsim.Axes() {
		fmt.Printf("  %-16s %v\n", axis.Name, axis.Plugins)
	}

	// 2. Composition: a torus chip the paper never evaluated, assembled
	// from registered names. The torus auto-selects its deadlock-free
	// dateline routing ("torus-xy").
	sim, err := htsim.New(
		htsim.WithCores(64),
		htsim.WithTopology("torus"),
		htsim.WithAllocator("pi"),
		htsim.WithDefense("history-guard"),
		htsim.WithMemTraffic(false),
		htsim.WithEpochs(10),
		htsim.WithObserver(epochTicker{}),
	)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config()
	fmt.Printf("\nchip: %d cores on a %s (%dx%d), %s routing, %s allocator\n",
		cfg.Cores, cfg.Topology, sim.Mesh().Width, sim.Mesh().Height,
		cfg.NoC.Routing.Name(), cfg.Allocator.Name())

	// 3. Scenario: mix-2 under a duty-cycled zero-rewrite attack from a
	// random fleet — again, every choice a registered name.
	scenario, err := htsim.MixScenario("mix-2", 8)
	if err != nil {
		log.Fatal(err)
	}
	if scenario.Strategy, err = htsim.Strategy("zero"); err != nil {
		log.Fatal(err)
	}
	scenario.Trojans, err = sim.Trojans("random", 10, 42)
	if err != nil {
		log.Fatal(err)
	}
	scenario.ActivateAfterEpochs = 2
	scenario.DutyOnEpochs, scenario.DutyOffEpochs = 2, 2

	// 4. Run with a deadline: cancelling the context — timeout, signal,
	// or an observer pulling the plug — stops the simulation promptly.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fmt.Println("\nstreaming the attacked run:")
	attacked, baseline, err := sim.RunPair(ctx, scenario)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := htsim.Compare(attacked, baseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal report: infection %.3f, attack effect Q = %.3f, %d requests flagged by the defense\n",
		attacked.InfectionMeasured, cmp.Q, attacked.FlaggedRequests)
	fmt.Println("the torus's wraparound links shorten request paths, so the same fleet")
	fmt.Println("intercepts a different traffic cross-section than on the paper's mesh.")
	// Output:
	// plugin axes:
	//   topology         [mesh torus]
	//   routing          [xy yx west-first torus-xy]
	//   allocator        [fair greedy dp pi]
	//   defense          [none range-guard history-guard both dual-path dual-path+range]
	//   trojan-strategy  [scale zero]
	//   attack-mode      [false-data drop loopback]
	//   placement        [center corner random ring]
	//   mix              [mix-1 mix-2 mix-3 mix-4]
	//   benchmark        [streamcluster swaptions ferret fluidanimate blackscholes freqmine dedup canneal vips barnes raytrace]
	//
	// chip: 64 cores on a torus (8x8), torus-xy routing, pi allocator
	//
	// streaming the attacked run:
	//   epoch  0  received  32  tampered   0  grants  32  infection 0.000
	//   epoch  1  received  32  tampered   0  grants  32  infection 0.000
	//   epoch  2  received  32  tampered  10  grants  32  infection 0.271 ######
	//   epoch  3  received  32  tampered  10  grants  32  infection 0.406 #########
	//   epoch  4  received  32  tampered   0  grants  32  infection 0.325 #######
	//   epoch  5  received  32  tampered   0  grants  32  infection 0.271 ######
	//   epoch  6  received  32  tampered  10  grants  32  infection 0.348 #######
	//   epoch  7  received  32  tampered  10  grants  32  infection 0.406 #########
	//   epoch  8  received  32  tampered   0  grants  32  infection 0.361 ########
	//   epoch  9  received  32  tampered   0  grants  32  infection 0.325 #######
	//
	// final report: infection 0.325, attack effect Q = 1.000, 40 requests flagged by the defense
	// the torus's wraparound links shorten request paths, so the same fleet
	// intercepts a different traffic cross-section than on the paper's mesh.
}
