package main

import (
	"context"
	"testing"
)

func TestRunPrintConfig(t *testing.T) {
	if err := run(context.Background(), []string{"-print-config"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSmallCampaign(t *testing.T) {
	err := run(context.Background(), []string{"-size", "64", "-threads", "15", "-hts", "6", "-placement", "ring", "-epochs", "6"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunInfectionTarget(t *testing.T) {
	err := run(context.Background(), []string{"-size", "64", "-threads", "15", "-infection", "0.5", "-epochs", "6"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := [][]string{
		{"-allocator", "magic"},
		{"-routing", "zigzag"},
		{"-mix", "mix-8"},
		{"-size", "64", "-placement", "diagonal"},
		// The service rejects these too: one Request.Validate behind both.
		{"-size", "64", "-threads", "15", "-infection", "1.5", "-epochs", "3"},
		{"-size", "64", "-threads", "15", "-hts", "-3", "-epochs", "3"},
	}
	for _, args := range tests {
		if err := run(context.Background(), args); err == nil {
			t.Fatalf("args %v must fail", args)
		}
	}
}

func TestRunDualPathTrace(t *testing.T) {
	err := run(context.Background(), []string{"-size", "64", "-threads", "15", "-hts", "4", "-placement", "ring",
		"-epochs", "5", "-defense", "dual-path", "-trace"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
