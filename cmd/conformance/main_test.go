package main

import (
	"strings"
	"testing"
)

func TestRunCrossMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "cross", "-widths", "2,4", "-ops", "24"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cross-engine conformance") {
		t.Errorf("missing header:\n%s", out)
	}
	if got := strings.Count(out, "7 engines agree"); got != 6 { // 3 nets x 2 widths
		t.Errorf("%d agreement lines, want 6:\n%s", got, out)
	}
}

func TestRunSoakMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "soak", "-nets", "bitonic", "-widths", "2", "-rounds", "8", "-shrink"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "soak clean: 16 schedules") {
		t.Errorf("soak summary wrong:\n%s", out)
	}
}

func TestRunChaosMode(t *testing.T) {
	var sb strings.Builder
	args := []string{"-mode", "chaos", "-nets", "bitonic", "-widths", "2", "-rounds", "4", "-fault-seed", "1", "-shrink"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "chaos soak (fault-plan fuzzing, 4 plans per cell, fault-seed 1)") {
		t.Errorf("missing chaos header:\n%s", out)
	}
	if !strings.Contains(out, "chaos clean: 4 fault plans, zero invariant breaches") {
		t.Errorf("chaos summary wrong:\n%s", out)
	}

	// Same fault-seed, same output: the chaos run is deterministic end
	// to end, so a CI failure is always reproducible from the flags.
	var again strings.Builder
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Errorf("chaos mode not reproducible:\n--- first ---\n%s--- second ---\n%s", out, again.String())
	}
}

func TestRunAllModeSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nets", "dtree", "-widths", "2", "-rounds", "3", "-ops", "12"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "7 engines agree") || !strings.Contains(out, "soak clean") {
		t.Errorf("all mode output:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "bogus"}, &sb); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := run([]string{"-nets", "torus"}, &sb); err == nil {
		t.Error("bogus net accepted")
	}
	if err := run([]string{"-widths", "1"}, &sb); err == nil {
		t.Error("width 1 accepted")
	}
	if err := run([]string{"-widths", "x"}, &sb); err == nil {
		t.Error("width x accepted")
	}
}
