package htsim

import (
	"fmt"
	"strings"
	"testing"
)

// This file covers the option-validation error paths: every unknown
// plugin name fails through the registry's canonical
// `unknown <axis> "<name>" (known: ...)` message, out-of-range scalars
// are rejected by configuration validation, and every registered
// defense × allocator combination builds (the axes are orthogonal by
// design — a conflict would be a registry bug).

// TestUnknownNamesUseCanonicalRegistryError asserts the exact error shape
// on every plugin axis: the axis noun, the quoted unknown name, and the
// full known-name list.
func TestUnknownNamesUseCanonicalRegistryError(t *testing.T) {
	cases := []struct {
		opt   Option
		axis  string
		known []string
	}{
		{WithTopology("hypercube"), "topology", Topologies()},
		{WithRouting("zigzag"), "routing", Routings()},
		{WithAllocator("magic"), "allocator", Allocators()},
		{WithDefense("firewall"), "defense", Defenses()},
	}
	for _, c := range cases {
		_, err := BuildConfig(c.opt)
		if err == nil {
			t.Fatalf("%s: unknown plugin name must fail BuildConfig", c.axis)
		}
		msg := err.Error()
		wantList := fmt.Sprintf("(known: %s)", strings.Join(c.known, ", "))
		if !strings.Contains(msg, "unknown "+c.axis) {
			t.Errorf("%s: error %q does not name the axis", c.axis, msg)
		}
		if !strings.Contains(msg, wantList) {
			t.Errorf("%s: error %q does not list every registered plugin %q", c.axis, msg, wantList)
		}
	}
}

// TestBuildConfigRejectsOutOfRangeScalars covers the scalar validation
// paths behind the options.
func TestBuildConfigRejectsOutOfRangeScalars(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"zero cores", []Option{WithCores(0)}, "at least two cores"},
		{"negative cores", []Option{WithCores(-16)}, "at least two cores"},
		{"one core", []Option{WithCores(1)}, "at least two cores"},
		{"zero budget", []Option{WithBudgetFraction(0)}, "budget fraction"},
		{"negative budget", []Option{WithBudgetFraction(-0.25)}, "budget fraction"},
		{"budget above one", []Option{WithBudgetFraction(1.5)}, "budget fraction"},
		{"zero epochs", []Option{WithEpochs(0)}, "measured epoch"},
		{"warmup eats epochs", []Option{WithEpochs(3), WithWarmupEpochs(3)}, "measured epoch"},
		{"short epoch", []Option{WithEpochCycles(10)}, "at least 100 cycles"},
		{"unknown manager placement", []Option{WithGMPlacement("edge")}, "unknown manager placement"},
	}
	for _, c := range cases {
		_, err := BuildConfig(c.opts...)
		if err == nil {
			t.Errorf("%s: BuildConfig must fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if _, err := BuildConfig(WithObserver(nil)); err == nil || !strings.Contains(err.Error(), "nil observer") {
		t.Errorf("nil observer: got %v", err)
	}
}

// TestEveryDefenseAllocatorComboBuilds sweeps the full defense ×
// allocator matrix: the two axes are orthogonal, so every registered
// combination must resolve into a valid configuration (and an unknown
// name in the combination still fails with the canonical error).
func TestEveryDefenseAllocatorComboBuilds(t *testing.T) {
	for _, def := range Defenses() {
		for _, alloc := range Allocators() {
			cfg, err := BuildConfig(WithDefense(def), WithAllocator(alloc), WithCores(64))
			if err != nil {
				t.Errorf("defense %q + allocator %q: %v", def, alloc, err)
				continue
			}
			if cfg.Allocator.Name() != alloc {
				t.Errorf("defense %q + allocator %q resolved allocator %q", def, alloc, cfg.Allocator.Name())
			}
		}
		// A bad allocator in an otherwise valid combination keeps the
		// canonical message.
		_, err := BuildConfig(WithDefense(def), WithAllocator("magic"))
		if err == nil || !strings.Contains(err.Error(), "unknown allocator") || !strings.Contains(err.Error(), "known:") {
			t.Errorf("defense %q + unknown allocator: got %v", def, err)
		}
	}
	// Defense configurations that install a filter derive it from the
	// power model's DVFS table; the guard must see the filter installed.
	cfg, err := BuildConfig(WithDefense("range-guard"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Filter == nil {
		t.Error(`WithDefense("range-guard") left no filter installed`)
	}
	cfg, err = BuildConfig(WithDefense("dual-path"))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.DualPathRequests {
		t.Error(`WithDefense("dual-path") did not enable dual-path requests`)
	}
	// A named defense replaces the filter and the dual-path switch it
	// finds, even ones a WithConfig installed.
	cfg, err = BuildConfig(WithDefense("dual-path+range"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = BuildConfig(WithConfig(cfg), WithDefense("none"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Filter != nil || cfg.DualPathRequests {
		t.Error(`WithDefense("none") kept the defense WithConfig installed`)
	}
}
