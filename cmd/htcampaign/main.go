// Command htcampaign is the declarative front door to the evaluation: it
// runs a campaign spec naming any subset of the DESIGN.md §2 experiments
// (E1–E10, X1–X2) and writes each experiment's results table as JSON and
// CSV artifacts plus a manifest, printing the same tables as text.
//
// Artifacts are byte-identical for any -parallel value at a fixed seed.
//
// Examples:
//
//	htcampaign run -spec specs/paper.json -out results/
//	htcampaign run -spec specs/smoke.json -out results/ -parallel 8 -quiet
//	htcampaign validate -spec specs/paper.json
//	htcampaign list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/pkg/htsim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		obs.Stderr().Error("htcampaign: fatal", "error", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: run, validate, or list")
	}
	switch args[0] {
	case "run":
		return runCampaign(ctx, args[1:], out)
	case "validate":
		return validateSpec(args[1:], out)
	case "list":
		return listExperiments(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, validate, or list)", args[0])
	}
}

func runCampaign(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("htcampaign run", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "campaign spec file (JSON)")
		outDir   = fs.String("out", "results", "artifact output directory")
		parallel = fs.Int("parallel", 0, "worker count (0 = one per CPU; artifacts identical for any value)")
		quiet    = fs.Bool("quiet", false, "suppress the per-experiment text tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("need -spec")
	}
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	man, tables, err := campaign.Run(ctx, spec, *outDir, *parallel, campaign.Progress{})
	if err != nil {
		return err
	}
	if !*quiet {
		for _, t := range tables {
			if err := results.WriteText(out, t); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "campaign %q: %d experiments, artifacts in %s (manifest.json indexes them)\n",
		man.Name, len(man.Artifacts), *outDir)
	return nil
}

func validateSpec(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("htcampaign validate", flag.ContinueOnError)
	specPath := fs.String("spec", "", "campaign spec file (JSON)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("need -spec")
	}
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spec %q is valid: %d experiments, seed %d\n", spec.Name, len(spec.Experiments), spec.Seed)
	return nil
}

func listExperiments(args []string, out io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("list takes no arguments")
	}
	fmt.Fprintln(out, "experiments:")
	for _, e := range campaign.Experiments() {
		fmt.Fprintf(out, "  %-4s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "plugin registries (spec params and pkg/htsim options resolve these names):")
	for _, axis := range htsim.Axes() {
		fmt.Fprintf(out, "  %-16s %s\n", axis.Name, strings.Join(axis.Plugins, ", "))
	}
	return nil
}
