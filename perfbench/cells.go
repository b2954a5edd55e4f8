package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"reno/internal/backend"
	"reno/internal/elim"
	"reno/internal/emu"
	machreg "reno/internal/machine"
	"reno/internal/pipeline"
	"reno/internal/reno"
	"reno/internal/service"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// The cells workload: one goroutine runs every cell through each host-speed
// layer in turn. Two SPECint and two MediaBench programs cover the paper's
// suites; mcf adds a 661k-instruction warmup and the slowest detailed run.
var (
	cellBenches = []string{"gzip", "gsm.de", "mpg2.de", "gcc", "mcf"}
	cellConfigs = []string{"BASE", "RENO"}
)

const (
	cellMachine = "4w"
	cellScale   = 1.0
)

// cellOffsets returns the workload seed offsets a cells run with seed s
// builds: five programs per benchmark, since cells has only five
// benchmarks to average the model's speedup over.
func cellOffsets(s int64) []int64 { return []int64{5 * s, 5*s + 1, 5*s + 2, 5*s + 3, 5*s + 4} }

// cell is one (program, RENO configuration) pair with everything set-up
// prepares for it.
type cell struct {
	id     string // bench@s<offset>/<config>
	prof   workload.Profile
	off    int64
	config string
	cfg    pipeline.Config
	prog   *workload.Program
	warm   uint64
	stream []emu.Dyn // the timed part of the recorded stream (RENO cells)
}

// cellRun is one cell's measurements in one pass.
type cellRun struct {
	emuNS, emuInsts   float64
	elimNS, elimInsts float64
	elimAllocs        float64
	elimStats         [reno.NumKinds]uint64
	ns                [3]float64 // per backend.Kind
	allocs            [3]float64 // per backend.Kind, traced passes only
	res               [3]*backend.Result
	span              interval // the three backend runs
}

// setupCells builds every program, counts its warmup and records the
// elimination engine's input stream.
func setupCells(e *env, offsets []int64) ([]*cell, error) {
	root := e.tr.begin("cells.setup", "", 0)
	defer e.tr.end(root)
	var cells []*cell
	for _, b := range cellBenches {
		base, ok := workload.ByName(b)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", b)
		}
		for _, off := range offsets {
			prof := sweep.SeedProfile(base, off)
			id := fmt.Sprintf("%s@s%d", b, off)
			h := e.tr.begin("workload.build", id, root)
			prog, err := workload.Build(workload.Scale(prof, cellScale))
			e.tr.end(h)
			if err != nil {
				return nil, err
			}
			h = e.tr.begin("workload.warmup", id, root)
			warm, err := prog.WarmupCount()
			e.tr.end(h)
			if err != nil {
				return nil, err
			}
			var stream []emu.Dyn
			for _, config := range cellConfigs {
				rc, err := machreg.RenoByName(config)
				if err != nil {
					return nil, err
				}
				cfg, err := machreg.ParseMachine(cellMachine, rc)
				if err != nil {
					return nil, err
				}
				c := &cell{id: id + "/" + config, prof: base, off: off, config: config, cfg: cfg, prog: prog, warm: warm}
				if cfg.Reno.AnyEnabled() {
					if stream == nil {
						h = e.tr.begin("emu.collect_trace", id, root)
						stream, err = recordStream(prog, warm)
						e.tr.end(h)
						if err != nil {
							return nil, err
						}
					}
					c.stream = stream
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// recordStream records the program's dynamic stream and keeps the part
// after warmup, the part the backends feed to the elimination engine.
func recordStream(prog *workload.Program, warm uint64) ([]emu.Dyn, error) {
	m := emu.New(prog.Code)
	if err := m.Run(1 << 40); err != nil {
		return nil, err
	}
	full, err := emu.CollectTrace(prog.Code, m.ICount)
	if err != nil {
		return nil, err
	}
	return append([]emu.Dyn(nil), full[min(warm, uint64(len(full))):]...), nil
}

// runCell drives one cell through the emulator, the elimination engine and
// the three backends.
func runCell(ctx context.Context, e *env, c *cell, parent int) (*cellRun, error) {
	cr := &cellRun{}
	var m0, m1 runtime.MemStats
	traced := e.tr.on.Load()

	h := e.tr.begin("emu.run", c.id, parent)
	t0 := time.Now()
	m := emu.New(c.prog.Code)
	err := m.Run(1 << 40)
	cr.emuNS = float64(time.Since(t0).Nanoseconds())
	e.tr.end(h)
	if err != nil || !m.Halted {
		return nil, fmt.Errorf("%s: emulator did not halt: %v", c.id, err)
	}
	cr.emuInsts = float64(m.ICount)

	if c.stream != nil {
		if traced {
			runtime.ReadMemStats(&m0)
		}
		h = e.tr.begin("elim.next", c.id, parent)
		t0 = time.Now()
		eng := elim.New(c.cfg.Reno, c.cfg.ROBSize, c.cfg.RenameWidth)
		for i := range c.stream {
			if _, err := eng.Next(c.stream[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", c.id, err)
			}
		}
		cr.elimNS = float64(time.Since(t0).Nanoseconds())
		e.tr.end(h)
		if traced {
			runtime.ReadMemStats(&m1)
			cr.elimAllocs = float64(m1.Mallocs - m0.Mallocs)
		}
		cr.elimInsts = float64(len(c.stream))
		cr.elimStats = eng.Stats().Eliminated
	}

	req := backend.Request{Cfg: c.cfg, Code: c.prog.Code, Warmup: c.warm}
	cr.span.start = time.Now()
	defer func() { cr.span.end = time.Now() }()
	for _, k := range backend.Kinds() {
		if traced {
			runtime.ReadMemStats(&m0)
		}
		h = e.tr.begin("backend."+k.String(), c.id, parent)
		t0 = time.Now()
		r, err := backend.For(k).Run(ctx, req)
		cr.ns[k] = float64(time.Since(t0).Nanoseconds())
		e.tr.end(h)
		if traced {
			runtime.ReadMemStats(&m1)
			cr.allocs[k] = float64(m1.Mallocs - m0.Mallocs)
		}
		e.chk.tally(err == nil, "%s on %s: %v", c.id, k, err)
		if err != nil {
			return nil, nil
		}
		cr.res[k] = r
	}
	return cr, nil
}

// checkCell compares the backends with each other, with the standalone
// elimination engine, and with the goldens.
func checkCell(e *env, c *cell, cr *cellRun) {
	det := cr.res[backend.Detailed]
	for _, k := range []backend.Kind{backend.Approx, backend.Functional} {
		r := cr.res[k]
		e.chk.tally(r.ArchHash == det.ArchHash && r.CommitHash == det.CommitHash,
			"%s: %s hashes %016x/%016x differ from detailed %016x/%016x", c.id, k, r.ArchHash, r.CommitHash, det.ArchHash, det.CommitHash)
		e.chk.tally(r.Pipe.Reno.Eliminated == det.Pipe.Reno.Eliminated && r.Pipe.Insts == det.Pipe.Insts,
			"%s: %s elimination counts %v differ from detailed %v", c.id, k, r.Pipe.Reno.Eliminated, det.Pipe.Reno.Eliminated)
	}
	if c.stream != nil {
		e.chk.tally(cr.elimStats == det.Pipe.Reno.Eliminated,
			"%s: standalone engine eliminated %v, detailed %v", c.id, cr.elimStats, det.Pipe.Reno.Eliminated)
	}
	for _, k := range backend.Kinds() {
		r := cr.res[k]
		h := fnv.New64a()
		fmt.Fprintf(h, "%d %d %016x %016x %v", r.Pipe.Insts, r.Pipe.Cycles, r.ArchHash, r.CommitHash, r.Pipe.Reno.Eliminated)
		e.golden.check(e.chk, c.id+"/"+k.String(), fmt.Sprintf("%016x", h.Sum64()))
	}
}

func runCells(ctx context.Context, e *env) error {
	offsets := cellOffsets(e.seed)
	var cells []*cell
	for i := 0; i < 3; i++ {
		err := e.timeSetup(func() (err error) {
			cells, err = setupCells(e, offsets)
			return err
		})
		if err != nil {
			return err
		}
	}

	// Warm pass: the first program of every benchmark, untimed.
	for _, c := range cells {
		if c.off == offsets[0] {
			if _, err := runCell(ctx, e, c, 0); err != nil {
				return err
			}
		}
	}

	var mips [3][]float64
	var passS, cellMS, hitMS []float64
	var last []*cellRun
	err := e.reps(3, func(rep int) (func(*hostTimeline), error) {
		pass := e.tr.begin("cells.pass", fmt.Sprint(rep), 0)
		runs := make([]*cellRun, len(cells))
		for i, c := range cells {
			cr, err := runCell(ctx, e, c, pass)
			if err != nil {
				return nil, err
			}
			if cr == nil {
				continue
			}
			runs[i] = cr
			checkCell(e, c, cr)
			if e.tr.on.Load() {
				cellTrace(e, cr)
			}
		}
		e.tr.end(pass)
		last = runs

		// The cached path of a cell: its detailed result stored in, then
		// read back from, the service's persistent result store. A GC
		// first, so the collection of the pass's garbage does not overlap
		// the timed reads. A get takes one of two speeds, about 0.25 or
		// 0.40 ms, often for a whole round of reads at a time, so the
		// probe runs one round per benchmark and the pass reports the mean
		// get: a median over the gets would flip between the two speeds.
		runtime.GC()
		var rounds []storeRound
		for b := range cellBenches {
			var items []storeItem
			for i, c := range cells {
				if runs[i] != nil && c.prof.Name == cellBenches[b] {
					items = append(items, cellStoreItem(c, runs[i].res[backend.Detailed]))
				}
			}
			dir := filepath.Join(e.dir, fmt.Sprintf("cells-store%d-%d", rep, b))
			t0 := time.Now()
			gets, err := probeStore(e, dir, items, 3)
			rounds = append(rounds, storeRound{interval{t0, time.Now()}, gets})
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
		}
		return func(h *hostTimeline) {
			// Each cell's times are scaled by the host's state over that
			// cell, each round's gets by its state over that round.
			var ns, insts [3]float64
			for _, cr := range runs {
				if cr == nil {
					continue
				}
				slow := h.slowdown(cr.span.start, cr.span.end)
				for k := range cr.ns {
					ns[k] += cr.ns[k] / slow
					insts[k] += float64(cr.res[k].Pipe.Insts)
				}
				cellMS = append(cellMS, (cr.ns[0]+cr.ns[1]+cr.ns[2])/1e6/slow)
			}
			for k := range mips {
				mips[k] = append(mips[k], insts[k]/ns[k]*1e3)
			}
			passS = append(passS, (ns[0]+ns[1]+ns[2])/1e9)
			var getMS, n float64
			for _, r := range rounds {
				getMS += sum(r.gets) / h.slowdown(r.span.start, r.span.end)
				n += float64(len(r.gets))
			}
			hitMS = append(hitMS, getMS/n)
		}, nil
	})
	if err != nil {
		return err
	}
	e.golden.coverage(e.chk)

	e.e2e["detailed_mips"] = median(mips[backend.Detailed])
	e.e2e["approx_mips"] = median(mips[backend.Approx])
	e.e2e["functional_mips"] = median(mips[backend.Functional])
	e.e2e["grid_wall_s"] = median(passS)
	e.e2e["sweep_p50_ms"] = quantile(cellMS, 0.5)
	e.e2e["sweep_p90_ms"] = quantile(cellMS, 0.9)
	e.e2e["reno_speedup_pct"] = speedupPct(detailedRecs(cells, last))
	e.overhead(passS)
	e.note("cells: %d cells x 3 backends, %d passes, seed offsets %s", len(cells), len(passS), joinInts(offsets))

	e.e2e["hit_p50_ms"] = median(hitMS)
	if e.traced {
		cellLayers(e)
	}
	return nil
}

// cellTrace records the counts the per-layer metrics divide by.
func cellTrace(e *env, cr *cellRun) {
	det := cr.res[backend.Detailed]
	e.tr.count("emu.insts", cr.emuInsts)
	e.tr.count("elim.insts", cr.elimInsts)
	e.tr.count("elim.allocs", cr.elimAllocs)
	e.tr.count("elim.eliminated", float64(sumU(cr.elimStats[:])))
	e.tr.count("pipeline.insts", float64(det.Pipe.Insts))
	e.tr.count("pipeline.cycles", float64(det.Pipe.Cycles))
	e.tr.count("pipeline.allocs", cr.allocs[backend.Detailed])
	e.tr.count("pipeline.self_ns", cr.ns[backend.Detailed]-cr.emuNS-cr.elimNS)
	e.tr.count("approx.insts", float64(cr.res[backend.Approx].Pipe.Insts))
	e.tr.count("functional.insts", float64(cr.res[backend.Functional].Pipe.Insts))
	if det.Pipe.IPC > 0 {
		diff := cr.res[backend.Approx].Pipe.IPC - det.Pipe.IPC
		if diff < 0 {
			diff = -diff
		}
		e.tr.count("approx.ipc_err_pct", diff/det.Pipe.IPC*100)
		e.tr.count("approx.cells", 1)
	}
}

// cellLayers derives the cells workload's per-layer metrics from the spans
// and counts of its traced passes.
func cellLayers(e *env) {
	t := e.tr
	e.layer["workload.build_ms"] = median(t.durations("workload.build"))
	e.layer["workload.warmup_ms"] = median(t.durations("workload.warmup"))
	e.layer["emu.ns_per_inst"] = ratio(t.total("emu.run"), t.counter("emu.insts"))
	e.layer["elim.ns_per_inst"] = ratio(t.total("elim.next"), t.counter("elim.insts"))
	e.layer["elim.allocs_per_kinst"] = ratio(t.counter("elim.allocs"), t.counter("elim.insts")/1000)
	e.layer["elim.elim_frac"] = ratio(t.counter("elim.eliminated"), t.counter("elim.insts"))
	e.layer["pipeline.self_ns_per_inst"] = ratio(t.counter("pipeline.self_ns"), t.counter("pipeline.insts"))
	e.layer["pipeline.allocs_per_kinst"] = ratio(t.counter("pipeline.allocs"), t.counter("pipeline.insts")/1000)
	e.layer["pipeline.ipc"] = ratio(t.counter("pipeline.insts"), t.counter("pipeline.cycles"))
	e.layer["backend.approx.ns_per_inst"] = ratio(t.total("backend.approx"), t.counter("approx.insts"))
	e.layer["backend.functional.ns_per_inst"] = ratio(t.total("backend.functional"), t.counter("functional.insts"))
	e.layer["backend.approx.ipc_err_pct"] = ratio(t.counter("approx.ipc_err_pct"), t.counter("approx.cells"))
	storeLayers(e)
}

// detailedRecs renders the pass's detailed results as sweep-style records.
func detailedRecs(cells []*cell, runs []*cellRun) [][]cellRec {
	var recs []cellRec
	for i, c := range cells {
		if runs[i] != nil {
			key := fmt.Sprintf("%s/%s/%s@s%d", c.prof.Name, cellMachine, c.config, c.off)
			recs = append(recs, cellRec{key: key, backend: "detailed", config: c.config, ipc: runs[i].res[backend.Detailed].Pipe.IPC})
		}
	}
	return [][]cellRec{recs}
}

// cellStoreItem renders a cell's detailed result as the record the sweep
// engine would store for it.
func cellStoreItem(c *cell, r *backend.Result) storeItem {
	p := r.Pipe
	job := sweep.Job{Profile: c.prof, Machine: cellMachine, Config: c.config, Seed: c.off, Cfg: c.cfg}
	return storeItem{
		key: job.Key(sweep.Options{Scale: cellScale}),
		res: &sweep.Result{
			Bench: c.prof.Name, Suite: c.prof.Suite, Machine: cellMachine, Config: c.config, Seed: c.off,
			Cycles: p.Cycles, Insts: p.Insts, IPC: p.IPC,
			ElimME: p.ElimME, ElimCF: p.ElimCF, ElimLoads: p.ElimLoads, ElimALU: p.ElimALU, ElimTotal: p.ElimTotal,
			BranchAccuracy: p.BranchAccuracy,
			ArchHash:       fmt.Sprintf("%016x", r.ArchHash),
			Hash:           fmt.Sprintf("%016x", r.CommitHash),
			Pipeline:       p,
		},
	}
}

// storeRound is one round of store reads: its stretch and each get's
// latency in ms.
type storeRound struct {
	span interval
	gets []float64
}

type storeItem struct {
	key string
	res *sweep.Result
}

// probeStore times service.DiskStore.Put for every item, then gets times
// Get for each, in a fresh directory. It returns the Get latencies in ms
// and checks that every Get returned the stored record.
func probeStore(e *env, dir string, items []storeItem, gets int) ([]float64, error) {
	ds, err := service.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	probe := e.tr.begin("store.probe", "", 0)
	defer e.tr.end(probe)
	for _, it := range items {
		h := e.tr.begin("store.put", it.key, probe)
		ds.Put(it.key, it.res)
		e.tr.end(h)
	}
	var out []float64
	for i := 0; i < gets; i++ {
		for _, it := range items {
			h := e.tr.begin("store.get", it.key, probe)
			t0 := time.Now()
			r := ds.Get(it.key)
			out = append(out, ms(time.Since(t0)))
			e.tr.end(h)
			e.chk.tally(r != nil && r.Hash == it.res.Hash && r.ArchHash == it.res.ArchHash,
				"store: record %s did not round-trip", it.key)
		}
	}
	return out, nil
}

// storeLayers derives the store metrics from the probe's spans.
func storeLayers(e *env) {
	e.layer["store.put_us"] = median(e.tr.durations("store.put")) * 1e3
	e.layer["store.get_us"] = median(e.tr.durations("store.get")) * 1e3
}

func sumU(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}
