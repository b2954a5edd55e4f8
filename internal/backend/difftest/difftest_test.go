package difftest

import (
	"context"
	"math"
	"testing"
	"time"

	"reno/internal/backend"
	"reno/internal/machine"
	"reno/internal/workload"
)

// matrixInsts bounds the timed instructions per preset-matrix cell: enough
// to exercise warmed-up steady state (IT occupancy, bypassing, misses) while
// keeping the full machines × renos × backends sweep in unit-test budget.
const matrixInsts = 20000

// benchCell resolves one (bench, machine, reno) triple against the machine
// registry and the workload presets.
func benchCell(t testing.TB, bench, mach, rcfg string) Cell {
	t.Helper()
	rc, err := machine.RenoByName(rcfg)
	if err != nil {
		t.Fatalf("reno %s: %v", rcfg, err)
	}
	cfg, err := machine.ParseMachine(mach, rc)
	if err != nil {
		t.Fatalf("machine %s: %v", mach, err)
	}
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	prog, err := workload.Build(workload.Scale(p, 0.3))
	if err != nil {
		t.Fatalf("build %s: %v", bench, err)
	}
	warm, err := prog.WarmupCount()
	if err != nil {
		t.Fatalf("warmup %s: %v", bench, err)
	}
	return Cell{
		Machine: mach, Config: rcfg, Bench: bench,
		Cfg: cfg, Code: prog.Code, Warmup: warm, MaxInsts: matrixInsts,
	}
}

// TestBackendEquivalenceMatrix is the tentpole proof: for every machine
// preset × RENO configuration in the registry, the functional and
// cycle-approximate backends must match the detailed pipeline exactly on
// architectural results and elimination counts.
func TestBackendEquivalenceMatrix(t *testing.T) {
	ctx := context.Background()
	for _, m := range machine.Machines() {
		for _, r := range machine.Renos() {
			m, r := m, r
			t.Run(m.Name+"/"+r.Name, func(t *testing.T) {
				t.Parallel()
				cell := benchCell(t, "gzip", m.Name, r.Name)
				for _, alt := range []backend.Kind{backend.Functional, backend.Approx} {
					rep, err := Compare(ctx, cell, backend.Detailed, alt)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Equivalent() {
						t.Errorf("%s", rep)
					}
				}
			})
		}
	}
}

// TestEquivalenceAcrossBenches widens the workload axis on the flagship
// configuration: every fidelity pair must agree on benches that stress
// memory (mcf-like chase), calls/returns, and redundancy differently.
func TestEquivalenceAcrossBenches(t *testing.T) {
	ctx := context.Background()
	for _, bench := range []string{"mcf", "crafty", "adpcm.de", "perl.d"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			cell := benchCell(t, bench, "4w", "RENO")
			for _, alt := range []backend.Kind{backend.Functional, backend.Approx} {
				rep, err := Compare(ctx, cell, backend.Detailed, alt)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Equivalent() {
					t.Errorf("%s", rep)
				}
			}
		})
	}
}

// TestRunToHaltEquivalence drops the instruction budget entirely: both
// fidelity levels must run the program to architectural halt and agree.
func TestRunToHaltEquivalence(t *testing.T) {
	cell := benchCell(t, "gzip", "4w", "RENO")
	cell.MaxInsts = 0
	p, _ := workload.ByName("gzip")
	prog, err := workload.Build(workload.Scale(p, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	cell.Code = prog.Code
	warm, err := prog.WarmupCount()
	if err != nil {
		t.Fatal(err)
	}
	cell.Warmup = warm
	rep, err := Compare(context.Background(), cell, backend.Detailed, backend.Functional)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent() {
		t.Errorf("%s", rep)
	}
	if rep.ResA.Pipe.StopReason != "" || rep.ResB.Pipe.StopReason != "" {
		t.Errorf("expected run-to-halt on both backends, got %q / %q",
			rep.ResA.Pipe.StopReason, rep.ResB.Pipe.StopReason)
	}
}

// ApproxIPCTolerance is the pinned accuracy envelope of the approx backend:
// its IPC estimate stays within this relative error of the detailed model on
// the preset matrix. Worst case measured across the pinned cells is ~20%
// (see docs/backends.md); the envelope leaves margin for workload drift.
// The model is a screening tool, not a substitute for detailed timing.
const ApproxIPCTolerance = 0.35

// TestApproxIPCTolerance measures the approx model against detailed timing
// and enforces the documented envelope.
func TestApproxIPCTolerance(t *testing.T) {
	ctx := context.Background()
	worst := 0.0
	for _, c := range []struct{ bench, mach, rcfg string }{
		{"gzip", "4w", "BASE"},
		{"gzip", "4w", "RENO"},
		{"mcf", "4w", "RENO"},
		{"crafty", "6w", "RENO"},
	} {
		cell := benchCell(t, c.bench, c.mach, c.rcfg)
		det, err := backend.For(backend.Detailed).Run(ctx, cell.request())
		if err != nil {
			t.Fatal(err)
		}
		apx, err := backend.For(backend.Approx).Run(ctx, cell.request())
		if err != nil {
			t.Fatal(err)
		}
		if det.Pipe.IPC <= 0 || apx.Pipe.IPC <= 0 {
			t.Fatalf("%s: non-positive IPC (detailed %.3f, approx %.3f)", cell, det.Pipe.IPC, apx.Pipe.IPC)
		}
		relErr := math.Abs(apx.Pipe.IPC-det.Pipe.IPC) / det.Pipe.IPC
		t.Logf("%s: detailed IPC %.3f, approx IPC %.3f, rel err %.1f%%",
			cell, det.Pipe.IPC, apx.Pipe.IPC, 100*relErr)
		if relErr > worst {
			worst = relErr
		}
		if relErr > ApproxIPCTolerance {
			t.Errorf("%s: approx IPC %.3f vs detailed %.3f: rel err %.1f%% exceeds the %.0f%% envelope",
				cell, apx.Pipe.IPC, det.Pipe.IPC, 100*relErr, 100*ApproxIPCTolerance)
		}
	}
	t.Logf("worst-case approx IPC error: %.1f%%", 100*worst)
}

// TestFunctionalSpeedup pins the point of the functional backend. Two
// regimes: baseline screening (no elimination accounting, emulator speed)
// must beat detailed timing by an order of magnitude; with full RENO
// accounting the elimination engine is shared work on both sides, and the
// measured gap is ~4x (see docs/backends.md), pinned here at >= 2x.
func TestFunctionalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	ctx := context.Background()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("unknown bench gzip")
	}
	prog, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := prog.WarmupCount()
	if err != nil {
		t.Fatal(err)
	}

	measure := func(rcfg string) float64 {
		cell := benchCell(t, "gzip", "4w", rcfg)
		cell.Code = prog.Code
		cell.Warmup = warm
		cell.MaxInsts = 0 // run to halt: both backends do identical work
		time_ := func(k backend.Kind) time.Duration {
			start := time.Now()
			if _, err := backend.For(k).Run(ctx, cell.request()); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		// Warm both paths once (build caches, page in), then take the best
		// of three to shed scheduler noise.
		time_(backend.Functional)
		time_(backend.Detailed)
		fn, det := time_(backend.Functional), time_(backend.Detailed)
		for i := 0; i < 2; i++ {
			if v := time_(backend.Functional); v < fn {
				fn = v
			}
			if v := time_(backend.Detailed); v < det {
				det = v
			}
		}
		ratio := float64(det) / float64(fn)
		t.Logf("%s: detailed %v, functional %v: %.1fx", rcfg, det, fn, ratio)
		return ratio
	}

	if ratio := measure("BASE"); ratio < 10 {
		t.Errorf("baseline screening only %.1fx faster than detailed (want >= 10x)", ratio)
	}
	if ratio := measure("RENO"); ratio < 2 {
		t.Errorf("functional with RENO accounting only %.1fx faster than detailed (want >= 2x)", ratio)
	}
}

// TestDiagnoseLocalizesBudgetDivergence exercises the structured mismatch
// report directly: two runs of the same cell under different instruction
// budgets must diverge at exactly the shorter budget, with a non-trivial
// register delta across the disputed suffix.
func TestDiagnoseLocalizesBudgetDivergence(t *testing.T) {
	ctx := context.Background()
	cell := benchCell(t, "gzip", "4w", "RENO")
	short := cell
	short.MaxInsts = 1000
	long := cell
	long.MaxInsts = 2000

	ra, err := backend.For(backend.Functional).Run(ctx, short.request())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := backend.For(backend.Functional).Run(ctx, long.request())
	if err != nil {
		t.Fatal(err)
	}
	if ra.ArchHash == rb.ArchHash {
		t.Fatal("budgets 1000 and 2000 unexpectedly reached the same architectural state")
	}
	d := Diagnose(cell, ra, rb)
	if d.Index != 1000 {
		t.Errorf("divergence index = %d, want 1000 (the shorter budget)", d.Index)
	}
	if len(d.RegDelta) == 0 {
		t.Error("expected a non-empty register delta across the disputed suffix")
	}
	// Self-check: equal-length streams report index -1 (no divergence).
	if d := Diagnose(cell, ra, ra); d.Index != -1 {
		t.Errorf("identical runs: divergence index = %d, want -1", d.Index)
	}
}
