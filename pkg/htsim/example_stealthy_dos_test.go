package htsim_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/trojan"
	"repro/pkg/htsim"
)

// Example_stealthyDoS runs the Section III-B attack process end to end on
// the SDK. The hacker broadcasts CONFIG_CMD packets to duty-cycle the
// Trojans' activation signal ON and OFF across budgeting epochs — the
// paper's suggestion for evading detection — and the example shows how
// the victim's performance and the infection rate respond to different
// duty cycles. The payload rewrite is a custom trojan.Strategy value:
// plugins resolve by name, but hand-built instances drop in wherever a
// registered one would.
//
// Run with:
//
//	go test ./pkg/htsim -run Example_stealthyDoS -v
func Example_stealthyDoS() {
	sim, err := htsim.New(
		htsim.WithCores(64),
		htsim.WithMemTraffic(false),
		htsim.WithEpochs(12),
		htsim.WithWarmupEpochs(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	placement, err := sim.Trojans("ring", 8, 1)
	if err != nil {
		log.Fatal(err)
	}

	scenario := htsim.Scenario{
		Apps: []htsim.AppSpec{
			{Name: "swaptions", Threads: 16, Role: htsim.RoleAttacker},
			{Name: "blackscholes", Threads: 16, Role: htsim.RoleVictim},
		},
		Trojans:  placement,
		Strategy: trojan.ScaleStrategy{VictimFactor: 0.2, BoostFactor: 1.5},
	}

	ctx := context.Background()
	baseline, err := sim.Run(ctx, scenario.WithoutTrojans())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("duty cycle (ON/OFF epochs) vs infection rate and victim performance")
	fmt.Printf("%10s %12s %12s %10s\n", "duty", "infection", "victim Θ", "Q")
	duties := []struct{ on, off int }{
		{0, 0}, // always on
		{3, 1},
		{1, 1},
		{1, 3},
	}
	var traced *htsim.Report
	for _, d := range duties {
		sc := scenario
		sc.DutyOnEpochs, sc.DutyOffEpochs = d.on, d.off
		attacked, err := sim.Run(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}
		cmp, err := htsim.Compare(attacked, baseline)
		if err != nil {
			log.Fatal(err)
		}
		victim := 0.0
		for _, app := range cmp.PerApp {
			if app.Role == htsim.RoleVictim {
				victim = app.Change
			}
		}
		label := "always-on"
		if d.on > 0 {
			label = fmt.Sprintf("%d/%d", d.on, d.off)
		}
		if d.on == 1 && d.off == 1 {
			traced = attacked
		}
		fmt.Printf("%10s %12.3f %12.3f %10.3f\n", label, attacked.InfectionMeasured, victim, cmp.Q)
	}

	// The per-epoch trace of the 1/1 campaign shows the ON/OFF signature a
	// history-based detector would look for.
	fmt.Println("\nepoch trace of the 1/1 duty cycle:")
	fmt.Printf("%7s %8s %10s %13s %13s\n", "epoch", "active", "tampered", "victim-level", "attacker-lvl")
	for _, rec := range traced.Epochs {
		state := "off"
		if rec.TrojanActive {
			state = "ON"
		}
		fmt.Printf("%7d %8s %10d %13.2f %13.2f\n",
			rec.Epoch, state, rec.RequestsTampered, rec.VictimMeanLevel, rec.AttackerMeanLevel)
	}
	fmt.Println("\nshorter ON phases trade attack strength for stealth — the Trojan")
	fmt.Println("only rewrites packets while the activation register is set.")
	// Output:
	// duty cycle (ON/OFF epochs) vs infection rate and victim performance
	//       duty    infection     victim Θ          Q
	//  always-on        0.906        0.441      2.589
	//        3/1        0.680        0.553      2.014
	//        1/1        0.453        0.721      1.487
	//        1/3        0.227        0.888      1.158
	//
	// epoch trace of the 1/1 duty cycle:
	//   epoch   active   tampered  victim-level  attacker-lvl
	//       0       ON         29          0.00          0.00
	//       1      off          0          0.94          5.00
	//       2       ON         29          4.00          4.00
	//       3      off          0          0.94          5.00
	//       4       ON         29          4.00          4.00
	//       5      off          0          0.94          5.00
	//       6       ON         29          4.00          4.00
	//       7      off          0          0.94          5.00
	//       8       ON         29          4.00          4.00
	//       9      off          0          0.94          5.00
	//      10       ON         29          4.00          4.00
	//      11      off          0          0.94          5.00
	//
	// shorter ON phases trade attack strength for stealth — the Trojan
	// only rewrites packets while the activation register is set.
}
