// Package elim is the shared RENO elimination engine: it drives the
// internal/reno optimizer over the committed dynamic instruction stream in
// strict program order and produces, for every instruction, the rename
// decision (eliminated or conventional, with the full Renamed record) that
// every simulation backend consumes.
//
// Hoisting the decision out of the detailed pipeline is what makes
// multi-fidelity simulation provable: the functional and cycle-approximate
// backends run the same engine over the same stream, and the detailed
// pipeline *replays* the engine's recorded decisions instead of re-deciding
// under timing pressure (squash replays reuse the original record), so all
// backends report identical elimination counts by construction — the
// invariant the differential harness in internal/backend/difftest pins.
//
// # Decision discipline
//
// The engine renames in fixed RenameWidth-aligned groups (the same-group
// dependence restriction of Section 3.2 resets at each group boundary) and
// retires decisions through a window of ROBSize records: before deciding
// instruction k it commits record k-ROBSize, mirroring the most conservative
// schedule a ROB-bounded core can achieve. The detailed pipeline always
// renames instruction k with at least k-ROBSize+1 instructions committed
// (it holds a free ROB slot at rename), so the engine's commit pointer never
// passes the pipeline's and registers freed by the engine have no live
// readers in flight. When the physical register file is exhausted the engine
// force-commits older records until an allocation succeeds and publishes the
// resulting commit floor as Decision.MinCommitted; the detailed pipeline
// stalls rename until its own commit count reaches that floor, reproducing
// the structural stall.
//
// Speculative load bypassing is adjudicated immediately: before renaming a
// load that would integrate, the engine peeks the integration table and
// compares the tuple's value oracle against the trace result. A mismatch
// invalidates the stale tuple, counts a re-execution failure, renames the
// load conventionally, and marks the decision MisBypass so the detailed
// pipeline can model the retirement-time squash-and-replay.
//
// # Decision ownership
//
// Next builds each Decision in storage the engine owns and returns a
// pointer to it; the pointer is valid only until the next call to Next,
// which overwrites it. A consumer that keeps a decision past that point
// copies what it needs first (the detailed pipeline copies the record into
// its ROB entry once). The engine's own commit window keeps no records at
// all, only the physical register each in-flight decision frees at commit,
// so deciding an instruction copies no rename record.
package elim

import (
	"fmt"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/refcount"
	"reno/internal/renamer"
	"reno/internal/reno"
)

// Decision is the engine's verdict for one dynamic instruction.
type Decision struct {
	// Ren is the complete rename record (shared with the pipeline ROB).
	Ren reno.Renamed

	// MisBypass marks a load whose speculative integration would have
	// promised the wrong value: it was renamed conventionally, and the
	// detailed pipeline models the retirement-time mismatch (squash and
	// replay) this decision stands in for.
	MisBypass bool

	// MinCommitted is the engine's commit count after this decision: the
	// number of older instructions whose resources this decision may have
	// reclaimed. A timing model must commit at least this many instructions
	// before acting on the decision (the detailed pipeline's rename stall
	// on physical-register exhaustion).
	MinCommitted uint64
}

// Engine makes all RENO elimination decisions for one simulated program.
type Engine struct {
	opt *reno.Optimizer

	width int // fixed rename group width
	mask  uint32
	idx   uint64 // instructions decided

	// win is the decision window: a ring of at most ROBSize in-flight
	// decisions, each entry the physical register the decision's displaced
	// mapping holds until commit (-1 when it has no destination).
	win       []int32
	winHead   int
	winCount  int
	committed uint64

	// dec is the storage behind the pointer Next returns.
	dec Decision

	reexecFails uint64
}

// zeroMap mirrors the optimizer's unused-source mapping.
var zeroMap = renamer.Mapping{P: refcount.ZeroReg}

// New builds an engine for one program run. robSize bounds the decision
// window and renameWidth fixes the group alignment; both must match the
// timing model consuming the decisions for cross-backend equivalence.
func New(cfg reno.Config, robSize, renameWidth int) *Engine {
	if robSize < 1 || renameWidth < 1 {
		panic(fmt.Sprintf("elim: invalid window %d / width %d", robSize, renameWidth))
	}
	return &Engine{
		opt:   reno.New(cfg),
		width: renameWidth,
		win:   make([]int32, robSize),
	}
}

// Optimizer exposes the underlying RENO optimizer (stats, IT, refcounts).
func (e *Engine) Optimizer() *reno.Optimizer { return e.opt }

// Stats returns the optimizer's rename-time statistics. Over a fully
// committed stream these equal the per-backend commit tallies exactly.
func (e *Engine) Stats() reno.Stats { return e.opt.Stats }

// ReexecFails returns the number of loads whose speculative integration was
// adjudicated as a value mismatch.
func (e *Engine) ReexecFails() uint64 { return e.reexecFails }

// Decided returns the number of instructions decided so far.
func (e *Engine) Decided() uint64 { return e.idx }

// Committed returns the engine's commit-pointer position.
func (e *Engine) Committed() uint64 { return e.committed }

// commitOldest retires the oldest in-flight decision, releasing the
// physical register its displaced mapping holds.
//
//reno:hotpath
func (e *Engine) commitOldest() {
	if p := e.win[e.winHead]; p >= 0 {
		e.opt.Release(int(p))
	}
	e.winHead++
	if e.winHead == len(e.win) {
		e.winHead = 0
	}
	e.winCount--
	e.committed++
}

// Next decides instruction d. Instructions must be presented exactly once
// each, in program order (the committed stream); timing-model replays reuse
// the record returned here rather than calling Next again. The returned
// Decision is engine-owned and valid until the next call.
//
//reno:hotpath
func (e *Engine) Next(d emu.Dyn) (*Decision, error) {
	if e.idx%uint64(e.width) == 0 {
		e.mask = 0 // fixed group boundary: the in-group restriction resets
	}
	if e.winCount == len(e.win) {
		e.commitOldest()
	}

	dec := &e.dec
	dec.MisBypass = false
	in := d.Inst

	// Pre-adjudicate speculative load bypassing: if this load would
	// integrate, compare the tuple's value oracle against the trace result
	// now instead of at retirement. The guards mirror the optimizer's own
	// elimination path so a tuple is only invalidated when it would
	// actually have been used.
	if isa.ClassOf(in) == isa.ClassLoad && isa.HasDest(in) && !e.depOnElim(in) {
		if t := e.opt.IT(); t != nil && t.Covers(in) {
			rs, _ := isa.Sources(in)
			src := e.opt.MapTable().Lookup(rs)
			if _, val, _, hit := t.Peek(isa.OpLd, in.Imm, src, zeroMap); hit && val != d.Result {
				t.InvalidateSignature(isa.OpLd, in.Imm, src, zeroMap)
				e.reexecFails++
				dec.MisBypass = true
			}
		}
	}

	result := d.Result
	if in.Op == isa.OpSt {
		result = d.SrcVals[1] // stored data value
	}
	gi := reno.GroupInst{Inst: in, Result: result}
	r := &dec.Ren
	for !e.opt.RenameOne(r, gi, e.mask) {
		// Physical register file exhausted: force-commit older decisions
		// until an allocation succeeds, publishing the commit floor.
		if e.winCount == 0 {
			//lint:ignore hotalloc fatal-error path, taken at most once per run
			return nil, fmt.Errorf("elim: %d physical registers exhausted with no in-flight work at instruction %d",
				e.opt.Config().PhysRegs, e.idx)
		}
		e.commitOldest()
	}
	e.mask = reno.UpdateGroupMask(e.mask, r)

	tail := e.winHead + e.winCount
	if tail >= len(e.win) {
		tail -= len(e.win)
	}
	e.win[tail] = -1
	if r.HasDest {
		e.win[tail] = int32(r.OldMap.P)
	}
	e.winCount++
	e.idx++

	dec.MinCommitted = e.committed
	return dec, nil
}

// depOnElim reports whether in reads a logical register written by an older
// eliminated instruction of the current fixed group (the Section 3.2
// restriction the optimizer will apply).
//
//reno:hotpath
func (e *Engine) depOnElim(in isa.Inst) bool {
	rs, rt := isa.Sources(in)
	n := isa.NumSources(in)
	if n >= 1 && rs != isa.RZero && e.mask&(1<<uint(rs)) != 0 {
		return true
	}
	if n >= 2 && rt != isa.RZero && e.mask&(1<<uint(rt)) != 0 {
		return true
	}
	return false
}
