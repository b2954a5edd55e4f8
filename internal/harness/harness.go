// Package harness drives the experiments of Section 4: it runs benchmark
// suites across processor and RENO configurations and renders the rows and
// series of every table and figure in the paper's evaluation.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"reno/internal/pipeline"
	"reno/internal/reno"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Scale multiplies every workload's iteration count (1.0 ≈ 100-300k
	// dynamic instructions per benchmark).
	Scale float64
	// MaxInsts caps the timed instructions per run (0 = to completion).
	MaxInsts uint64
	// Parallel runs benchmarks concurrently on the sweep worker pool.
	Parallel bool
	// Workers bounds pool concurrency; 0 means GOMAXPROCS when Parallel,
	// 1 otherwise.
	Workers int
	// Timeout bounds each run's wall-clock time (0 = none); timed-out
	// runs are reported as errors with partial statistics.
	Timeout time.Duration
}

// DefaultOptions returns laptop-scale settings.
func DefaultOptions() Options {
	return Options{Scale: 1.0, MaxInsts: 300_000, Parallel: true}
}

// workers resolves the effective pool width. Parallel=false always means
// serial (renobench documents -workers as ignored with -serial); Workers
// only widens a parallel pool.
func (o Options) workers() int {
	if !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run is one (benchmark, configuration) measurement.
type Run struct {
	Bench  string
	Suite  string
	Config string
	Res    *pipeline.Result
	Hash   uint64
	Err    error
}

// key identifies a run.
func (r Run) key() string { return r.Bench + "/" + r.Config }

// Set holds the results of a batch of runs, indexed for table rendering.
type Set struct {
	Runs map[string]*Run
}

// Get returns the run for (bench, config), or nil.
func (s *Set) Get(bench, config string) *Run {
	if r, ok := s.Runs[bench+"/"+config]; ok && r.Err == nil {
		return r
	}
	return nil
}

// Speedup returns the percentage speedup of config over base for bench,
// computed from cycle counts as in the paper (NaN if either run failed).
func (s *Set) Speedup(bench, base, config string) float64 {
	b, c := s.Get(bench, base), s.Get(bench, config)
	if b == nil || c == nil || c.Res.Cycles == 0 {
		return math.NaN()
	}
	return 100 * (float64(b.Res.Cycles)/float64(c.Res.Cycles) - 1)
}

// RelPerf returns config's performance relative to base as a percentage
// (100 = parity), the Figure 11/12 normalization.
func (s *Set) RelPerf(bench, base, config string) float64 {
	b, c := s.Get(bench, base), s.Get(bench, config)
	if b == nil || c == nil || c.Res.Cycles == 0 {
		return math.NaN()
	}
	return 100 * float64(b.Res.Cycles) / float64(c.Res.Cycles)
}

// Job is one pending simulation. Seed is the workload seed offset (0 = the
// benchmark's canonical program; see sweep.SeedProfile).
type Job struct {
	Bench  workload.Profile
	CfgTag string
	Cfg    pipeline.Config
	Seed   int64
}

// Execute runs all jobs on the sweep worker pool, honoring opts, checking
// that every configuration of a benchmark reaches the same architectural
// state. It is ExecuteContext without cancellation.
func Execute(jobs []Job, opts Options, progress io.Writer) *Set {
	return ExecuteContext(context.Background(), jobs, opts, progress)
}

// ExecuteContext is Execute under a context: canceling ctx stops in-flight
// simulations promptly (their runs are recorded as errors with partial
// statistics) and skips the rest.
func ExecuteContext(ctx context.Context, jobs []Job, opts Options, progress io.Writer) *Set {
	sjobs := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		sjobs[i] = sweep.Job{Profile: j.Bench, Config: j.CfgTag, Seed: j.Seed, Cfg: j.Cfg}
	}
	sopts := sweep.Options{Workers: opts.workers(), Scale: opts.Scale, MaxInsts: opts.MaxInsts, Timeout: opts.Timeout}
	if progress != nil {
		sopts.Progress = func(ri sweep.RunInfo) {
			r := ri.Result
			if r.Err != "" {
				fmt.Fprintf(progress, "  %-10s %-14s ERROR %s\n", r.Bench, r.Tag(), r.Err)
				return
			}
			fmt.Fprintf(progress, "  %-10s %-14s IPC %.3f elim %.1f%%\n",
				r.Bench, r.Tag(), r.IPC, r.ElimTotal)
		}
	}
	results := sweep.RunContext(ctx, sjobs, sopts)
	return newSet(results, progress)
}

// ExecuteGrid expands a declarative grid and runs it; run tags follow
// sweep.Job.Tag ("machine/config", "@s<seed>" for non-zero seeds). The
// grid's own Scale/MaxInsts/Workers fields are ignored in favor of opts, so
// figure code carries one source of execution knobs.
func ExecuteGrid(g sweep.Grid, opts Options, progress io.Writer) (*Set, error) {
	return ExecuteGridContext(context.Background(), g, opts, progress)
}

// ExecuteGridContext is ExecuteGrid under a context.
func ExecuteGridContext(ctx context.Context, g sweep.Grid, opts Options, progress io.Writer) (*Set, error) {
	jobs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	hjobs := make([]Job, len(jobs))
	for i, j := range jobs {
		hjobs[i] = Job{Bench: j.Profile, CfgTag: j.Tag(), Cfg: j.Cfg, Seed: j.Seed}
	}
	return ExecuteContext(ctx, hjobs, opts, progress), nil
}

// newSet indexes sweep results into a Set and prints the architectural
// equivalence audit.
func newSet(results []*sweep.Result, progress io.Writer) *Set {
	set := &Set{Runs: map[string]*Run{}}
	for _, r := range results {
		if r.BuildFailed() {
			// Benchmark profiles are static data; a workload that won't
			// build is a programming error, and the pre-sweep Execute
			// panicked on it. Keep that loudness: figures pass a nil
			// progress writer, so a quiet per-run error would vanish.
			panic(fmt.Sprintf("workload %s: %s", r.Bench, r.Err))
		}
		// Execute always routes the full display tag through Config (with
		// Machine left empty), so r.Config is already the Set key's
		// configuration axis — including any @s<seed> suffix.
		run := &Run{Bench: r.Bench, Suite: r.Suite, Config: r.Config, Res: r.Pipeline, Hash: r.ArchHashU64()}
		if r.Err != "" {
			run.Err = fmt.Errorf("%s", r.Err)
		}
		set.Runs[run.key()] = run
	}
	if progress != nil {
		for _, w := range sweep.Audit(results) {
			fmt.Fprintf(progress, "  WARNING: %s\n", w)
		}
	}
	return set
}

// Suites returns the benchmark lists used by every figure.
func Suites() (spec, media []workload.Profile) {
	return workload.SPECint(), workload.MediaBench()
}

// GeoMeanPct computes the geometric-mean percentage speedup across benches
// (the paper's arithmetic-mean bars are labeled "amean"; we report both).
func GeoMeanPct(vals []float64) float64 {
	prod := 1.0
	n := 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		prod *= 1 + v/100
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * (math.Pow(prod, 1/float64(n)) - 1)
}

// MeanPct is the arithmetic mean ignoring NaNs (the paper's amean).
func MeanPct(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Table renders a simple fixed-width text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Fprint writes the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// F formats a float with one decimal, rendering NaN as "-".
func F(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// SortedBenchNames returns the benchmark names of a suite in their
// canonical (paper) order.
func SortedBenchNames(profiles []workload.Profile) []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// ConfigTag builds the canonical tag for a figure's configuration axis.
func ConfigTag(parts ...string) string { return strings.Join(parts, "+") }

// RenoConfigs returns the named RENO configurations used across figures.
func RenoConfigs(pregs int) map[string]reno.Config {
	return map[string]reno.Config{
		"BASE":       reno.Baseline(pregs),
		"ME":         {PhysRegs: pregs, EnableME: true},
		"ME+CF":      reno.MECF(pregs),
		"RENO":       reno.Default(pregs),
		"RENO+FI":    reno.RENOPlusFullIntegration(pregs),
		"FullInteg":  reno.FullIntegration(pregs),
		"LoadsInteg": reno.LoadsIntegration(pregs),
	}
}

// sortRunKeys is used by debugging helpers to render a Set stably.
func (s *Set) sortedKeys() []string {
	keys := make([]string, 0, len(s.Runs))
	for k := range s.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Dump writes every run one per line (debugging aid).
func (s *Set) Dump(w io.Writer) {
	for _, k := range s.sortedKeys() {
		r := s.Runs[k]
		if r.Err != nil {
			fmt.Fprintf(w, "%-28s ERR %v\n", k, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-28s IPC %.3f cycles %d elim %.1f%%\n", k, r.Res.IPC, r.Res.Cycles, r.Res.ElimTotal)
	}
}
