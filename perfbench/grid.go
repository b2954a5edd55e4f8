package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"reno/internal/cluster"
	"reno/internal/service"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// The grid workload submits every benchmark at every fidelity: one grid
// per backend, posted together, each 34 benchmarks x 4w x {BASE, RENO} x
// the run's three seed offsets. The cluster workload runs the same grids
// through a coordinator and two workers.
const (
	// gridScale keeps one repetition near 2.5 s on two processors, so
	// about ten fit in the measuring window and their median is steady.
	gridScale   = 0.15
	gridWorkers = 2 // cluster workers, capacity 1 each
)

var gridBackends = []string{"detailed", "approx", "functional"}

// gridSpec renders one grid as the JSON renoserve accepts.
func gridSpec(benches []string, seeds []int64, scale float64, maxInsts uint64, backend string) []byte {
	g := sweep.Grid{
		Version: 2, Benches: benches, MachineConfigs: sweep.Specs("4w"), RenoConfigs: sweep.Specs("BASE", "RENO"),
		Seeds: seeds, Scale: scale, MaxInsts: maxInsts,
	}
	if backend != "detailed" {
		g.Backend = backend
	}
	spec, err := json.Marshal(g)
	if err != nil {
		panic(err) // a Grid always marshals
	}
	return spec
}

func gridSpecs(benches []string, seeds []int64) [][]byte {
	var specs [][]byte
	for _, b := range gridBackends {
		specs = append(specs, gridSpec(benches, seeds, gridScale, 0, b))
	}
	return specs
}

// gridRun is one repetition: the grids posted together, then each resent
// once it is cached.
type gridRun struct {
	subs  []*submission
	hits  []*submission
	start time.Time // the first POST
	wall  time.Duration
	recs  [][]cellRec // per submission
}

// runGridOnce posts every grid at once and follows them all to their
// results; the service runs them in turn, so each grid's latency includes
// the grids ahead of it. Then it resends each grid, one at a time, to time
// the fully cached path. A GC before each send keeps earlier garbage out of
// the timing.
func runGridOnce(ctx context.Context, e *env, st *stack, specs [][]byte, parent int) (*gridRun, error) {
	runtime.GC()
	t0 := time.Now()
	gr := &gridRun{start: t0}
	for _, spec := range specs {
		s := &submission{spec: spec}
		st.post(ctx, e, s, parent)
		gr.subs = append(gr.subs, s)
	}
	var wg sync.WaitGroup
	for _, s := range gr.subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.follow(ctx, e, s)
		}()
	}
	wg.Wait()
	for _, s := range gr.subs {
		if s.err != nil {
			return nil, s.err
		}
		gr.wall = max(gr.wall, s.done.Sub(t0))
	}
	for _, s := range gr.subs {
		recs, err := st.records(ctx, s)
		if err != nil {
			return nil, err
		}
		gr.recs = append(gr.recs, recs)
	}
	for _, spec := range specs {
		runtime.GC()
		s := &submission{spec: spec}
		st.submit(ctx, e, s, parent)
		if s.err != nil {
			return nil, s.err
		}
		gr.hits = append(gr.hits, s)
	}
	return gr, nil
}

// gridMetrics accumulates a grid or cluster run's measurements.
type gridMetrics struct {
	mips    map[string][]float64
	walls   []float64 // s
	subMS   []float64
	hitMS   []float64
	speedup float64
}

func runGrid(ctx context.Context, e *env) error { return gridWorkload(ctx, e, 0) }

func runCluster(ctx context.Context, e *env) error { return gridWorkload(ctx, e, gridWorkers) }

func gridWorkload(ctx context.Context, e *env, workers int) error {
	seeds := seedOffsets(e.seed)
	specs := gridSpecs([]string{"all"}, seeds)

	// Warm pass: a small grid through a throwaway stack, untimed.
	warm := gridSpecs([]string{"gzip", "gsm.de", "mcf"}, seeds[:1])
	st, err := startStack(e, stackConfig{storeDir: filepath.Join(e.dir, "warm"), workers: workers})
	if err != nil {
		return err
	}
	_, err = runGridOnce(ctx, e, st, warm, 0)
	st.close()
	if err != nil {
		return err
	}

	// The envelopes every repetition must reproduce byte for byte: the
	// first repetition's for grid; for cluster, the in-process pool's.
	var want [][]byte
	gm := &gridMetrics{mips: map[string][]float64{}}
	var runs []*gridRun
	err = e.reps(3, func(rep int) (func(*hostTimeline), error) {
		sc := stackConfig{storeDir: filepath.Join(e.dir, fmt.Sprintf("rep%d", rep)), workers: workers}
		st, err := openStack(e, sc)
		if err != nil {
			return nil, err
		}
		pass := e.tr.begin("grid.pass", fmt.Sprint(rep), 0)
		gr, err := runGridOnce(ctx, e, st, specs, pass)
		e.tr.end(pass)
		if err == nil && e.tr.on.Load() {
			gridTrace(e, st, sc, gr)
		}
		st.close()
		os.RemoveAll(sc.storeDir)
		if err != nil {
			return nil, err
		}
		if want == nil && workers == 0 {
			want = envelopes(gr.subs)
		}
		runs = append(runs, gr)
		return func(h *hostTimeline) { gm.add(gr, h) }, nil
	})
	if err != nil {
		return err
	}
	if workers > 0 {
		st, err := startStack(e, stackConfig{storeDir: filepath.Join(e.dir, "reference")})
		if err != nil {
			return err
		}
		ref, err := runGridOnce(ctx, e, st, specs, 0)
		st.close()
		if err != nil {
			return err
		}
		want = envelopes(ref.subs)
	}
	for i, gr := range runs {
		checkGrid(e, gr, want, i == 0)
	}
	e.golden.coverage(e.chk)

	for _, be := range gridBackends {
		e.e2e[be+"_mips"] = median(gm.mips[be])
	}
	e.e2e["grid_wall_s"] = median(gm.walls)
	e.e2e["reno_speedup_pct"] = gm.speedup
	e.e2e["sweep_p50_ms"] = quantile(gm.subMS, 0.5)
	e.e2e["sweep_p90_ms"] = quantile(gm.subMS, 0.9)
	e.e2e["hit_p50_ms"] = median(gm.hitMS)
	e.overhead(gm.walls)
	e.note("%s: %d repetitions of %d grids x %d cells, pool width %d, seed offsets %s; grid walls %s s",
		e.workload, len(gm.walls), len(specs), len(runs[0].recs[0]), stackConfig{workers: workers}.poolWidth(), joinInts(seeds), joinFloats(gm.walls))
	if e.traced {
		var progs []program
		for _, p := range workload.AllProfiles() {
			for _, s := range seeds {
				progs = append(progs, program{p, s})
			}
		}
		if err := probeWorkloads(e, progs, gridScale); err != nil {
			return err
		}
		gridLayers(e)
	}
	return nil
}

// add records one repetition's measurements at reference host speed, each
// scaled by the host's state over its own stretch: a grid's simulation from
// when the service started it to its results.
func (gm *gridMetrics) add(gr *gridRun, h *hostTimeline) {
	gm.walls = append(gm.walls, gr.wall.Seconds()/h.slowdown(gr.start, gr.start.Add(gr.wall)))
	for i, s := range gr.subs {
		gm.subMS = append(gm.subMS, ms(s.latency())/h.slowdown(s.sent, s.done))
		var ns, insts float64
		be := ""
		for _, r := range gr.recs[i] {
			ns += r.wallNS
			insts += r.insts
			be = r.backend
		}
		started := statusTime(s.status.Started)
		if started.IsZero() {
			started = s.sent
		}
		gm.mips[be] = append(gm.mips[be], insts/ns*1e3*h.slowdown(started, s.done))
	}
	for _, s := range gr.hits {
		gm.hitMS = append(gm.hitMS, ms(s.latency())/h.slowdown(s.sent, s.done))
	}
	gm.speedup = speedupPct(gr.recs)
}

func envelopes(subs []*submission) [][]byte {
	out := make([][]byte, len(subs))
	for i, s := range subs {
		out[i] = s.stable
	}
	return out
}

// checkGrid checks one repetition: every cell succeeded, the envelopes
// match the reference byte for byte (resent grids too), and the cells'
// run hashes match the goldens.
func checkGrid(e *env, gr *gridRun, want [][]byte, golden bool) {
	for i, s := range gr.subs {
		e.chk.tally(s.status.State == service.StateDone && s.status.Failed == 0,
			"grid %s: state %s with %d failed cells", s.id, s.status.State, s.status.Failed)
		e.chk.tally(bytes.Equal(s.stable, want[i]), "grid %s: envelope differs from the reference", s.id)
		e.chk.tally(bytes.Equal(gr.hits[i].stable, want[i]) && gr.hits[i].cached(),
			"grid %s: resent grid was not served identically from the cache", gr.hits[i].id)
		for _, r := range gr.recs[i] {
			e.chk.tally(r.failedMsg == "", "cell %s on %s failed: %s", r.key, r.backend, r.failedMsg)
			if golden {
				e.golden.check(e.chk, r.backend+":"+r.key, r.runHash)
			}
		}
	}
}

// speedupPct is the arithmetic mean over programs of RENO's detailed IPC
// speedup over BASE, in percent.
func speedupPct(recs [][]cellRec) float64 {
	base := map[string]float64{}
	for _, rs := range recs {
		for _, r := range rs {
			if r.backend == "detailed" && r.config == "BASE" {
				base[programKey(r.key)] = r.ipc
			}
		}
	}
	var sp []float64
	for _, rs := range recs {
		for _, r := range rs {
			if r.backend == "detailed" && r.config == "RENO" {
				if b := base[programKey(r.key)]; b > 0 {
					sp = append(sp, (r.ipc/b-1)*100)
				}
			}
		}
	}
	return ratio(sum(sp), float64(len(sp)))
}

// programKey drops the RENO configuration from a cell key, leaving the
// program and machine: bench/machine/config@sN -> bench/machine@sN.
func programKey(key string) string {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 3 {
		return key
	}
	seed := ""
	if i := strings.IndexByte(parts[2], '@'); i >= 0 {
		seed = parts[2][i:]
	}
	return parts[0] + "/" + parts[1] + seed
}

// gridTrace records the spans and counts of one traced repetition: each
// cell as a span under its submission, ending when its completion event
// arrived, and the pool, service, store and cluster counters.
func gridTrace(e *env, st *stack, sc stackConfig, gr *gridRun) {
	width := float64(sc.poolWidth())
	var busy float64
	var intervals [][2]time.Time
	var end time.Time
	for i, s := range gr.subs {
		for _, r := range gr.recs[i] {
			at, ok := s.arrived[r.key]
			if !ok {
				continue
			}
			start := at.Add(-time.Duration(r.wallNS))
			e.tr.record("sweep.cell", s.id+":"+r.key, s.span, start, at)
			intervals = append(intervals, [2]time.Time{start, at})
			busy += r.wallNS
		}
		end = maxTime(end, s.done)
		serviceTrace(e, s, gr.recs[i], width)
	}
	for _, s := range gr.hits {
		serviceTrace(e, s, nil, width)
	}
	e.tr.count("sweep.busy_frac", busy/1e9/(width*gr.wall.Seconds()))
	e.tr.count("sweep.tail_idle_s", tailIdle(intervals, int(width), end).Seconds())
	e.tr.count("sweep.reps", 1)
	resultCounts(e, gr.recs)
	if err := probeStoreDir(e, sc.storeDir); err != nil {
		e.chk.tally(false, "store probe: %v", err)
	}
	if st.coord != nil {
		cs, _ := st.coord.ClusterStats().(cluster.Stats)
		e.tr.count("cluster.leases", float64(cs.LeasesGranted))
		e.tr.count("cluster.steals", float64(cs.LeasesStolen))
		e.tr.count("cluster.expiries", float64(cs.LeasesExpired))
		e.tr.count("cluster.duplicates", float64(cs.DuplicateResults))
		var simulated float64
		for _, w := range st.workers {
			simulated += float64(w.Stats().CellsSimulated)
		}
		var settled float64
		for _, s := range gr.subs {
			settled += float64(s.status.Simulated)
		}
		e.tr.count("cluster.cells_simulated", simulated)
		e.tr.count("cluster.cells_settled", settled)
	}
}

// serviceTrace counts one submission's service-side measurements. recs is
// nil for a fully cached submission.
func serviceTrace(e *env, s *submission, recs []cellRec, width float64) {
	e.tr.count("service.runs", float64(s.status.Runs))
	e.tr.count("service.cache_hits", float64(s.status.CacheHits))
	e.tr.count("service.queue_wait_ms", ms(s.queueWait()))
	e.tr.count("service.subs", 1)
	if recs == nil || s.cached() {
		return
	}
	var sim float64
	for _, r := range recs {
		sim += r.wallNS
	}
	over := ms(s.latency()-s.queueWait()) - sim/1e6/min(width, float64(len(recs)))
	e.tr.count("service.overhead_ms", over)
	e.tr.count("service.sim_cells", float64(len(recs)))
}

// resultCounts counts the exact model outputs of simulated cells.
func resultCounts(e *env, recs [][]cellRec) {
	det := map[string]float64{}
	for _, rs := range recs {
		for _, r := range rs {
			if r.backend == "detailed" {
				det[r.key] = r.ipc
				e.tr.count("pipeline.insts", r.insts)
				e.tr.count("pipeline.cycles", r.cycles)
				if r.config == "RENO" {
					e.tr.count("elim.insts", r.insts)
					e.tr.count("elim.eliminated", r.insts*r.elimPct/100)
				}
			}
			e.tr.count("sweep.cells", 1)
		}
	}
	for _, rs := range recs {
		for _, r := range rs {
			if d := det[r.key]; r.backend == "approx" && d > 0 {
				diff := r.ipc - d
				if diff < 0 {
					diff = -diff
				}
				e.tr.count("approx.ipc_err_pct", diff/d*100)
				e.tr.count("approx.cells", 1)
			}
		}
	}
}

// tailIdle is how long before end the pool last had every slot busy.
func tailIdle(iv [][2]time.Time, width int, end time.Time) time.Duration {
	type edge struct {
		at time.Time
		d  int
	}
	var edges []edge
	for _, x := range iv {
		edges = append(edges, edge{x[0], +1}, edge{x[1], -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	var lastFull time.Time
	n := 0
	for _, ed := range edges {
		if n >= width && ed.d < 0 {
			lastFull = ed.at
		}
		n += ed.d
	}
	if lastFull.IsZero() {
		return 0
	}
	return end.Sub(lastFull)
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// gridLayers derives the grid and cluster workloads' per-layer metrics.
func gridLayers(e *env) {
	t := e.tr
	reps := t.counter("sweep.reps")
	cellMS := t.durations("sweep.cell")
	e.layer["sweep.busy_frac"] = ratio(t.counter("sweep.busy_frac"), reps)
	e.layer["sweep.tail_idle_s"] = ratio(t.counter("sweep.tail_idle_s"), reps)
	e.layer["sweep.cell_p50_ms"] = quantile(cellMS, 0.5)
	e.layer["sweep.cell_p90_ms"] = quantile(cellMS, 0.9)
	serviceLayers(e)
	e.layer["pipeline.ipc"] = ratio(t.counter("pipeline.insts"), t.counter("pipeline.cycles"))
	e.layer["elim.elim_frac"] = ratio(t.counter("elim.eliminated"), t.counter("elim.insts"))
	e.layer["backend.approx.ipc_err_pct"] = ratio(t.counter("approx.ipc_err_pct"), t.counter("approx.cells"))
	if t.counter("cluster.lease") > 0 {
		e.layer["cluster.lease_rtt_ms"] = median(t.durations("cluster.lease"))
		e.layer["cluster.upload_rtt_ms"] = median(t.durations("cluster.upload"))
		e.layer["cluster.heartbeats"] = ratio(t.counter("cluster.heartbeat"), reps)
		for _, c := range []string{"leases", "steals", "expiries", "duplicates"} {
			e.layer["cluster."+c] = ratio(t.counter("cluster."+c), reps)
		}
		e.layer["cluster.useful_frac"] = ratio(t.counter("cluster.cells_settled"), t.counter("cluster.cells_simulated"))
	}
}

// serviceLayers derives the service and store metrics shared by every
// workload that goes through renoserve.
func serviceLayers(e *env) {
	t := e.tr
	e.layer["service.post_ms"] = median(t.durations("service.post"))
	e.layer["service.results_ms"] = median(t.durations("service.results"))
	e.layer["service.queue_wait_ms"] = ratio(t.counter("service.queue_wait_ms"), t.counter("service.subs"))
	e.layer["service.overhead_ms_per_cell"] = ratio(t.counter("service.overhead_ms"), t.counter("service.sim_cells"))
	e.layer["service.hit_frac"] = ratio(t.counter("service.cache_hits"), t.counter("service.runs"))
	storeLayers(e)
}

// program is one benchmark built at one seed offset.
type program struct {
	prof workload.Profile
	seed int64
}

// probeWorkloads times workload.Build and WarmupCount from outside for
// every program a run simulated.
func probeWorkloads(e *env, progs []program, scale float64) error {
	e.tr.on.Store(true)
	defer e.tr.on.Store(false)
	root := e.tr.begin("workload.probe", "", 0)
	defer e.tr.end(root)
	for _, p := range progs {
		id := fmt.Sprintf("%s@s%d", p.prof.Name, p.seed)
		h := e.tr.begin("workload.build", id, root)
		prog, err := workload.Build(workload.Scale(sweep.SeedProfile(p.prof, p.seed), scale))
		e.tr.end(h)
		if err != nil {
			return err
		}
		h = e.tr.begin("workload.warmup", id, root)
		_, err = prog.WarmupCount()
		e.tr.end(h)
		if err != nil {
			return err
		}
	}
	e.layer["workload.build_ms"] = median(e.tr.durations("workload.build"))
	e.layer["workload.warmup_ms"] = median(e.tr.durations("workload.warmup"))
	return nil
}

// probeStoreDir times the result store on the records a traced repetition
// left in dir: each is read back, then written to a fresh store.
func probeStoreDir(e *env, dir string) error {
	ds, err := service.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	var items []storeItem
	for _, k := range ds.Keys() {
		if r := ds.Get(k); r != nil {
			items = append(items, storeItem{key: k, res: r})
		}
	}
	_, err = probeStore(e, dir+"-probe", items, 1)
	os.RemoveAll(dir + "-probe")
	return err
}
