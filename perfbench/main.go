// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed measuring window and prints, as the last line
// of standard output, one JSON object with the output-check tally and every
// metric by name and unit. Run it from the repository root, which holds
// BENCHMARK.json:
//
//	bash perfbench/run.sh --workload cells --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call and reports the per-layer
// metrics instead (see README.md for the metric → layer → workload map).
// Every layer is driven from outside, through its public functions or the
// renoserve HTTP API, so the benchmark measures the code as shipped.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed goldens were recorded at. Other
// seeds still run every cross-path check; only the golden check is skipped.
const defaultSeed = 1

// metricDef is one metric as BENCHMARK.json at the repository root lists
// it; the run reports exactly those metrics.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadMetricDefs() (endToEnd, perLayer []metricDef, err error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b.EndToEnd, b.PerLayer, nil
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(context.Context, *env) error{
	"cells":   runCells,
	"grid":    runGrid,
	"cluster": runCluster,
}

// env is one run's shared state: its inputs, measuring window, tracer,
// scratch directory, output checks and the metrics it reports.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool // --trace 1: report per-layer metrics
	dir      string
	tr       *tracer
	chk      *checks
	golden   *goldens

	host     *hostTimeline
	setups   []interval // one per set-up
	repSpans []interval // one per repetition
	e2e      map[string]float64
	layer    map[string]float64
	summary  []string // human-readable lines printed before the JSON
}

func (e *env) note(format string, args ...any) {
	e.summary = append(e.summary, fmt.Sprintf(format, args...))
}

// timeSetup runs one set-up and records its stretch for setup_s.
func (e *env) timeSetup(fn func() error) error {
	runtime.GC()
	prev := e.tr.on.Load()
	e.tr.on.Store(e.traced)
	defer e.tr.on.Store(prev)
	t0 := time.Now()
	err := fn()
	e.setups = append(e.setups, interval{t0, time.Now()})
	return err
}

// reps runs fn once per repetition until the measuring window has passed,
// and at least min times. fn returns a function that records the
// repetition's measurements at reference host speed; they are recorded
// once the host timeline covers every repetition. In traced runs odd
// repetitions are traced and even ones are not, so the run can report the
// tracing overhead.
func (e *env) reps(min int, fn func(rep int) (func(h *hostTimeline), error)) error {
	deadline := time.Now().Add(e.seconds)
	var records []func(*hostTimeline)
	for rep := 0; rep < min || time.Now().Before(deadline); rep++ {
		e.tr.on.Store(e.traced && rep%2 == 1)
		runtime.GC()
		t0 := time.Now()
		record, err := fn(rep)
		if err != nil {
			return err
		}
		e.repSpans = append(e.repSpans, interval{t0, time.Now()})
		records = append(records, record)
	}
	e.tr.on.Store(false)
	e.host.mark()
	for _, record := range records {
		record(e.host)
	}
	return nil
}

// overhead records the tracing overhead from per-repetition end-to-end
// times: odd repetitions were traced, even ones were not.
func (e *env) overhead(repTimes []float64) {
	var on, off []float64
	for i, v := range repTimes {
		if i%2 == 1 {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if len(on) > 0 && len(off) > 0 && median(off) > 0 {
		e.layer["trace.overhead_pct"] = (median(on) - median(off)) / median(off) * 100
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := benchmain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmain() error {
	name := flag.String("workload", "", "workload to run: cells, grid or cluster")
	seed := flag.Int64("seed", defaultSeed, "input seed; goldens are checked only at the default seed")
	seconds := flag.Int("seconds", 30, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	writeGoldens := flag.Bool("write-goldens", false, "record this run's outputs as the goldens (default seed only)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: --workload cells|grid|cluster --seed N --seconds N --trace 0|1")
	}
	if *writeGoldens && *seed != defaultSeed {
		return fmt.Errorf("goldens are recorded at the default seed %d", defaultSeed)
	}
	endToEnd, perLayer, err := loadMetricDefs()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "run"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "run"), "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      dir,
		tr:       newTracer(),
		chk:      &checks{},
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		host:     startHostTimeline(),
	}
	defer e.host.close()
	if e.golden, err = loadGoldens(*name, *seed, *writeGoldens); err != nil {
		return err
	}
	if err := run(context.Background(), e); err != nil {
		return err
	}
	if *writeGoldens {
		if err := e.golden.save(); err != nil {
			return err
		}
	}
	if e.traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := e.tr.write(path); err != nil {
			return err
		}
		e.layer["trace.spans"] = float64(len(e.tr.spans))
		e.note("trace: %d spans written to %s", len(e.tr.spans), path)
	}
	e.host.mark()
	var setups []float64
	for _, iv := range e.setups {
		setups = append(setups, iv.seconds()/e.host.slowdown(iv.start, iv.end))
	}
	e.e2e["setup_s"] = median(setups)
	var slow, steal, speed []float64
	for _, iv := range e.repSpans {
		h := e.host.over(iv.start, iv.end)
		slow, steal, speed = append(slow, h.slowdown()), append(steal, h.steal), append(speed, h.speed)
	}
	e.layer["host.slowdown"] = median(slow)
	e.layer["host.steal_frac"] = median(steal)
	e.note("host per repetition: slowdown %s; steal %s; kernel speed %s", joinFloats(slow), joinFloats(steal), joinFloats(speed))
	e.e2e["ok_frac"] = e.chk.okFrac()
	e.e2e["peak_rss_mb"] = peakRSSMB()

	out := resultOut{
		Correct:   e.chk.failed == 0,
		Attempted: e.chk.attempted,
		Failed:    e.chk.failed,
		Metrics:   map[string]metricOut{},
	}
	defs, vals := endToEnd, e.e2e
	if e.traced {
		defs, vals = perLayer, e.layer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !e.traced {
			return fmt.Errorf("workload %s did not measure %s", *name, d.Name)
		}
		// A per-layer metric absent from a workload measures a layer the
		// workload does not reach; it reports 0 (see README.md).
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	for _, line := range append(e.summary, e.chk.report(e.golden)...) {
		fmt.Println(line)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// peakRSSMB is the process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// seedOffsets returns the workload seed offsets (sweep.SeedProfile) that a
// run with seed s simulates. Three programs per benchmark keep the
// seed-to-seed spread of the model's speedup small; distinct seeds never
// share a program.
func seedOffsets(s int64) []int64 { return []int64{3 * s, 3*s + 1, 3*s + 2} }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func joinFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, ",")
}

func joinInts(v []int64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}
