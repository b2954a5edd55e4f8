package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// checks tallies attempted operations (cell runs, submissions, output
// comparisons) and the ones that failed. Any failure makes the run
// incorrect and lowers ok_frac.
type checks struct {
	mu        sync.Mutex
	attempted int      // guarded by mu
	failed    int      // guarded by mu
	first     []string // guarded by mu; the first few failures, for the log
}

// tally counts one operation; ok false counts it as failed.
func (c *checks) tally(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.first) < 8 {
			c.first = append(c.first, fmt.Sprintf(format, args...))
		}
	}
}

func (c *checks) okFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return 1 - float64(c.failed)/float64(c.attempted)
}

func (c *checks) report(g *goldens) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := []string{fmt.Sprintf("checks: %d attempted, %d failed", c.attempted, c.failed)}
	for _, f := range c.first {
		out = append(out, "  FAIL "+f)
	}
	switch {
	case g.writing:
		out = append(out, fmt.Sprintf("goldens: recorded %d entries in %s", len(g.Cells), g.path))
	case g.skipped:
		out = append(out, fmt.Sprintf("goldens: skipped (seed is not the default seed %d)", defaultSeed))
	default:
		out = append(out, fmt.Sprintf("goldens: %d compared, %d outputs without a golden", len(g.seen), g.missing))
	}
	return out
}

// goldens are per-cell output hashes recorded at the default seed.
type goldens struct {
	Seed  int64             `json:"seed"`
	Cells map[string]string `json:"cells"`

	path    string
	writing bool
	skipped bool

	mu      sync.Mutex
	seen    map[string]bool // guarded by mu
	missing int             // guarded by mu
}

// loadGoldens reads the workload's goldens. The cluster workload runs the
// grid workload's cells, so it shares the grid goldens.
func loadGoldens(workload string, seed int64, write bool) (*goldens, error) {
	if workload == "cluster" {
		workload = "grid"
	}
	g := &goldens{
		Seed:    defaultSeed,
		Cells:   map[string]string{},
		path:    filepath.Join("perfbench", "goldens", workload+".json"),
		writing: write,
		skipped: seed != defaultSeed,
		seen:    map[string]bool{},
	}
	if write || g.skipped {
		return g, nil
	}
	data, err := os.ReadFile(g.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no goldens at %s: record them with --write-goldens", g.path)
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", g.path, err)
	}
	return g, nil
}

// check compares one output hash with its golden, or records it.
func (g *goldens) check(c *checks, key, got string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.writing:
		g.Cells[key] = got
	case g.skipped:
	default:
		want, ok := g.Cells[key]
		if !ok {
			g.missing++
			return
		}
		g.seen[key] = true
		c.tally(want == got, "golden %s: got %s, want %s", key, got, want)
	}
}

// coverage fails the run when a workload with a fixed cell set did not
// produce every golden cell.
func (g *goldens) coverage(c *checks) {
	if g.writing || g.skipped {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c.tally(len(g.seen) == len(g.Cells) && g.missing == 0,
		"golden coverage: %d of %d goldens compared, %d outputs without a golden", len(g.seen), len(g.Cells), g.missing)
}

func (g *goldens) save() error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(data, '\n'), 0o644)
}
