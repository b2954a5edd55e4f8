// Package backend defines the multi-fidelity simulation backends: one
// Backend interface with three implementations spanning the
// cost/fidelity spectrum, all consuming the shared elimination engine
// (internal/elim) so RENO elimination accounting is identical at every
// fidelity level.
//
//	detailed    the cycle-level pipeline model (internal/pipeline): full
//	            structural hazards, ports, squash/replay. Ground truth.
//	approx      cycle-approximate: the full elimination engine plus branch
//	            predictor and cache hierarchy drive an analytic IPC
//	            estimate; no structural-hazard, port, or replay detail.
//	functional  the emulator plus the elimination engine, no timing at
//	            all. Screens cells an order of magnitude faster than
//	            detailed.
//
// Every backend reports the same architectural result (final state hash and
// committed-instruction stream hash) and the same elimination counts for a
// given cell; internal/backend/difftest proves it. Timing fields degrade
// with fidelity: approx estimates cycles/IPC, functional reports none.
package backend

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/pipeline"
)

// Kind identifies a simulation backend.
type Kind uint8

const (
	// Detailed is the cycle-level pipeline model — the zero value, so
	// specs and grids that never mention a backend keep their meaning.
	Detailed Kind = iota
	// Approx is the cycle-approximate model.
	Approx
	// Functional is the untimed emulator-plus-engine model.
	Functional
)

func (k Kind) String() string {
	switch k {
	case Detailed:
		return "detailed"
	case Approx:
		return "approx"
	case Functional:
		return "functional"
	}
	return fmt.Sprintf("backend(%d)", uint8(k))
}

// ParseKind resolves a backend name. The empty string selects Detailed, so
// every pre-backend spec, grid, and cache key keeps its meaning.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "detailed":
		return Detailed, nil
	case "approx":
		return Approx, nil
	case "functional":
		return Functional, nil
	}
	return Detailed, fmt.Errorf("unknown backend %q (want %s)", s, knownList())
}

// Kinds returns every backend, detailed first.
func Kinds() []Kind { return []Kind{Detailed, Approx, Functional} }

// Names returns the canonical backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return names
}

func knownList() string {
	s := ""
	for i, n := range Names() {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// Request describes one simulation cell: a fully resolved machine
// configuration, the program image, and the run bounds. It is
// backend-independent — the same Request on two backends is the
// differential harness's unit of comparison.
type Request struct {
	Cfg      pipeline.Config
	Code     []isa.Inst
	Warmup   uint64 // functional warmup instructions before timing
	MaxInsts uint64 // timed instruction budget (0 = to completion)
	Opts     pipeline.RunOptions
}

// Result is one backend run. Pipe carries the statistics at whatever
// fidelity the backend models (see the package comment for which fields are
// meaningful per backend); ArchHash and CommitHash are the architectural
// equivalence witnesses every backend must agree on.
type Result struct {
	Pipe *pipeline.Result

	// ArchHash is the final architectural state hash (emu.StateHash).
	ArchHash uint64

	// CommitHash is an order-sensitive 64-bit hash over the full committed
	// dynamic instruction stream (PC, instruction, next PC, effective
	// address, branch outcome, result and source values, in program
	// order).
	CommitHash uint64
}

// Backend runs simulation cells at one fidelity level.
type Backend interface {
	Kind() Kind
	// Run executes the cell. On cancellation it returns the partial result
	// together with ctx's error (detailed semantics); the architectural
	// hashes of partial runs are not comparable across backends.
	Run(ctx context.Context, req Request) (*Result, error)
}

// For returns the backend implementing k.
func For(k Kind) Backend {
	switch k {
	case Approx:
		return approxBackend{}
	case Functional:
		return functionalBackend{}
	default:
		return detailedBackend{}
	}
}

// commitHasher folds committed dynamic instructions into a stream hash.
// Per instruction it compresses the record's fields into two words with
// independent (instruction-level parallel) multiplies, then chains them
// with a multiply-xorshift step — order-sensitive like a polynomial hash,
// but an order of magnitude cheaper than byte-wise FNV on this hot path.
type commitHasher struct {
	h uint64
}

func newCommitHasher() *commitHasher {
	return &commitHasher{h: fnv.New64a().Sum64()}
}

// Distinct odd multipliers per field (splitmix64/xxhash-style constants) so
// that permuting field values cannot cancel.
const (
	hashC1  = 0x9e3779b97f4a7c15
	hashC2  = 0xc2b2ae3d27d4eb4f
	hashC3  = 0x165667b19e3779f9
	hashC4  = 0x27d4eb2f165667c5
	hashC5  = 0xff51afd7ed558ccd
	hashC6  = 0xc4ceb9fe1a85ec53
	hashC7  = 0x2545f4914f6cdd1d
	hashC8  = 0xd6e8feb86659fd93
	hashMix = 0xbf58476d1ce4e5b9
)

//reno:hotpath
func (c *commitHasher) add(d *emu.Dyn) {
	iw := uint64(d.Inst.Op)<<40 | uint64(d.Inst.Rd)<<32 |
		uint64(d.Inst.Rs)<<24 | uint64(d.Inst.Rt)<<16
	a := d.PC*hashC1 ^ d.NextPC*hashC2 ^ d.EA*hashC3 ^ iw*hashC4
	b := d.Result*hashC5 ^ d.SrcVals[0]*hashC6 ^ d.SrcVals[1]*hashC7 ^
		uint64(uint32(d.Inst.Imm))*hashC8
	if d.Taken {
		b ^= hashC1
	}
	h := c.h
	h = (h ^ a) * hashMix
	h ^= h >> 29
	h = (h ^ b) * hashMix
	h ^= h >> 29
	c.h = h
}

func (c *commitHasher) sum() uint64 { return c.h }
