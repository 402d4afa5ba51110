package main

import (
	"strings"
	"testing"
)

func res(ns float64, allocs int64) Result {
	return Result{NsPerOp: ns, AllocsPerOp: allocs, Iterations: 1}
}

func TestCheckRegressionPassesWithinTolerance(t *testing.T) {
	base := map[string]Result{
		"Gemm64":      res(1000, 0),
		"StepVGGNano": res(5000, 2),
	}
	curr := map[string]Result{
		"Gemm64":      res(1200, 0), // +20% < 35% tolerance
		"StepVGGNano": res(4800, 2),
	}
	if v := checkRegression(curr, base, pinnedKernels, 0.35); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCheckRegressionCatchesInjectedSlowdown(t *testing.T) {
	// The acceptance demo: inject a 2x slowdown on a pinned kernel and the
	// gate must fail.
	base := map[string]Result{"Gemm64": res(1000, 0)}
	curr := map[string]Result{"Gemm64": res(2000, 0)}
	v := checkRegression(curr, base, pinnedKernels, 0.35)
	if len(v) != 1 || !strings.Contains(v[0], "Gemm64") {
		t.Fatalf("2x slowdown not caught: %v", v)
	}
	// The same numbers pass once the tolerance admits them.
	if v := checkRegression(curr, base, pinnedKernels, 1.5); len(v) != 0 {
		t.Fatalf("tolerance 150%% still failed: %v", v)
	}
}

func TestCheckRegressionCatchesAllocIncrease(t *testing.T) {
	// allocs/op is gated on EVERY shared benchmark, not just pinned ones,
	// and with zero tolerance — counts are host-independent.
	base := map[string]Result{"PASGDRound/serial": res(1000, 4)}
	curr := map[string]Result{"PASGDRound/serial": res(1000, 5)}
	v := checkRegression(curr, base, pinnedKernels, 0.35)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("alloc increase not caught: %v", v)
	}
}

func TestCheckRegressionIgnoresUnsharedBenches(t *testing.T) {
	// New benchmarks (no baseline entry) and retired ones (no current entry)
	// must not trip the gate.
	base := map[string]Result{"Retired": res(10, 99), "Gemm64": res(1000, 0)}
	curr := map[string]Result{"Gemm256/blocked": res(10, 0), "Gemm64": res(1000, 0)}
	if v := checkRegression(curr, base, pinnedKernels, 0.35); len(v) != 0 {
		t.Fatalf("unshared benches tripped the gate: %v", v)
	}
}

func TestCheckRatiosBlockedMustBeatNaive(t *testing.T) {
	ok := map[string]Result{
		"Gemm256/naive":   res(10000, 0),
		"Gemm256/blocked": res(5000, 0),
	}
	if v := checkRatios(ok); len(v) != 0 {
		t.Fatalf("healthy ratio tripped the gate: %v", v)
	}
	bad := map[string]Result{
		"Gemm256/naive":   res(10000, 0),
		"Gemm256/blocked": res(9500, 0), // only 1.05x
	}
	v := checkRatios(bad)
	if len(v) != 1 || !strings.Contains(v[0], "Gemm256") {
		t.Fatalf("degraded blocked kernel not caught: %v", v)
	}
	// Missing entries (e.g. a trimmed bench list) are not a violation.
	if v := checkRatios(map[string]Result{"Gemm64": res(1, 0)}); len(v) != 0 {
		t.Fatalf("missing benches tripped the ratio gate: %v", v)
	}
}

func TestCheckRatiosConvShapeMustDispatchSSE(t *testing.T) {
	// The conv-shape gate is independent of the dense one: a healthy
	// Gemm256 ratio must not mask a conv path that fell back to the Go
	// micro-kernels (~1.1-1.7x over naive).
	curr := map[string]Result{
		"Gemm256/naive":    res(10000, 0),
		"Gemm256/blocked":  res(3000, 0),
		"GemmConv/naive":   res(12000, 0),
		"GemmConv/blocked": res(8000, 0), // 1.5x: scalar fallback speed
	}
	v := checkRatios(curr)
	if len(v) != 1 || !strings.Contains(v[0], "GemmConv") {
		t.Fatalf("conv-shape fallback not caught: %v", v)
	}
	curr["GemmConv/blocked"] = res(4200, 0) // ~2.9x: the SSE kernel
	if v := checkRatios(curr); len(v) != 0 {
		t.Fatalf("healthy conv ratio tripped the gate: %v", v)
	}
}
