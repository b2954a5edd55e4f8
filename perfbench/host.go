package main

import (
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared two-vCPU VM the hypervisor stole up
// to 55% of the processors' busy time in stretches of minutes, most when
// both processors were busy, and within one set of ten grid runs a
// repetition took from 2.5 s to 6.8 s. A run's median over its repetitions
// cannot absorb a slow stretch longer than half its window, so raw
// host-timed metrics would measure the neighbours rather than the program.
//
// The benchmark therefore follows the host's state through the whole run
// and reports every end-to-end timing at reference host speed: the time
// measured, divided by the host's slowdown over the same stretch of time
// (a cell, a grid, a submission, a round of store reads, a set-up). The
// slowdown has two factors:
//
//   - steal: the share of the processors' busy time the hypervisor stole,
//     from /proc/stat. Work that waits for a stolen processor takes
//     1/(1-steal) times as long.
//   - speed: how long a fixed kernel took to run, in its own thread's CPU
//     time (so steal and scheduling waits do not count), against the
//     reference host: the median of the samples taken in the stretch.
//
// A sampler goroutine reads /proc/stat and runs the kernel briefly every
// hostSampleEvery. The kernel is benchmark code and never calls the
// program, so a change to the program moves the scaled metrics as it moves
// the raw ones. Sub-millisecond timings are scaled the same way. Steal
// stretches them only in part, so under heavy steal they read somewhat
// low; scaling them by the kernel's speed alone left them further off
// (see README.md). The per-layer metrics host.slowdown and
// host.steal_frac report the median over a run's repetitions; the
// per-layer timings are raw.

const (
	// hostMemWords sizes the kernel's table: 32 KiB, so a sample after the
	// measured work has evicted it costs little beyond its compute.
	hostMemWords = 1 << 13
	// hostSampleOps is one kernel sample, about 0.7 ms.
	hostSampleOps = 50_000
	// hostSampleEvery spaces the samples; they cost about 1.5% of one
	// processor.
	hostSampleEvery = 50 * time.Millisecond
	// hostRefSampleS is the CPU seconds one sample took on the reference
	// host, a 2-vCPU x86-64 VM with go1.24.0, while it was otherwise idle.
	// Changing it rescales every scaled metric.
	hostRefSampleS = 0.0007
)

// hostKernel is a dispatch loop over a pseudo-random operation stream, as
// in an instruction-set simulator, with dependent loads and stores into a
// table. It does not allocate.
type hostKernel struct {
	mem []uint32
	x   uint32
	sum uint32 // keeps the work observable
}

func newHostKernel() *hostKernel {
	k := &hostKernel{mem: make([]uint32, hostMemWords), x: 0x9e3779b9}
	for i := range k.mem {
		k.mem[i] = uint32(i) * 2654435761
	}
	return k
}

func (k *hostKernel) sample() {
	mem := k.mem
	x, acc := k.x, k.sum
	for i := 0; i < hostSampleOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		switch x & 7 {
		case 0, 1, 2:
			acc += mem[(acc^x)&(hostMemWords-1)]
		case 3, 4:
			mem[x&(hostMemWords-1)] = acc
		case 5:
			if acc&1 == 0 {
				acc = acc*3 + 1
			} else {
				acc >>= 1
			}
		default:
			acc = bits.RotateLeft32(acc, int(x&31)) ^ x
		}
	}
	k.x, k.sum = x, acc
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// cpuStat is the processors' busy and stolen time from /proc/stat, in
// clock ticks; zero where the file cannot be read.
type cpuStat struct{ busy, steal float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// hostStretch is the host's state over one stretch of time.
type hostStretch struct {
	steal float64 // share of busy processor time stolen
	speed float64 // kernel CPU time against the reference; >1 is slower
}

// slowdown is how many times longer work took than it would have on the
// reference host.
func (h hostStretch) slowdown() float64 { return h.speed / (1 - h.steal) }

// hostPoint is one sample of the host: the processors' times so far and
// the kernel's speed just then.
type hostPoint struct {
	at    time.Time
	stat  cpuStat
	speed float64
}

// hostMinWindow is the shortest stretch the host's state is taken over:
// shorter ones are widened about their middle, so that /proc/stat's 10 ms
// ticks and a few kernel samples still give a steady estimate.
const hostMinWindow = 250 * time.Millisecond

// hostTimeline samples the host through a whole run, so that every
// measurement can be scaled by the host's state over its own stretch. A
// sampler goroutine adds a point every hostSampleEvery until close.
type hostTimeline struct {
	kernel *hostKernel
	mu     sync.Mutex
	pts    []hostPoint // guarded by mu; appended in time order
	stop   chan struct{}
	wg     sync.WaitGroup
}

func startHostTimeline() *hostTimeline {
	h := &hostTimeline{kernel: newHostKernel(), stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(hostSampleEvery)
		defer tick.Stop()
		for {
			h.mark()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mark adds a point now. Besides the sampler, a caller marks the end of
// the stretches it has measured, so that a point follows each of them.
func (h *hostTimeline) mark() {
	// The kernel's CPU time is read from this thread's clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	h.mu.Lock()
	defer h.mu.Unlock()
	t0 := threadCPU()
	h.kernel.sample()
	speed := (threadCPU() - t0) / hostRefSampleS
	h.pts = append(h.pts, hostPoint{at: time.Now(), stat: readCPUStat(), speed: speed})
}

func (h *hostTimeline) close() {
	close(h.stop)
	h.wg.Wait()
}

// over is the host's state over [a, b]: the steal between the points
// either side of the stretch and the median kernel speed between them.
func (h *hostTimeline) over(a, b time.Time) hostStretch {
	if d := hostMinWindow - b.Sub(a); d > 0 {
		a, b = a.Add(-d/2), b.Add(d/2)
	}
	h.mu.Lock()
	pts := h.pts
	h.mu.Unlock()
	i0 := max(sort.Search(len(pts), func(i int) bool { return pts[i].at.After(a) })-1, 0)
	i1 := min(sort.Search(len(pts), func(i int) bool { return !pts[i].at.Before(b) }), len(pts)-1)
	var speeds []float64
	for _, p := range pts[i0 : i1+1] {
		speeds = append(speeds, p.speed)
	}
	st := hostStretch{speed: median(speeds)}
	if busy := pts[i1].stat.busy - pts[i0].stat.busy; busy > 0 {
		st.steal = min((pts[i1].stat.steal-pts[i0].stat.steal)/busy, 0.9)
	}
	return st
}

// slowdown is the host's slowdown over [a, b].
func (h *hostTimeline) slowdown(a, b time.Time) float64 { return h.over(a, b).slowdown() }

// interval is one measured stretch of time.
type interval struct{ start, end time.Time }

func (iv interval) seconds() float64 { return iv.end.Sub(iv.start).Seconds() }
