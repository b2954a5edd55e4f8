package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"reno/internal/cluster"
	"reno/internal/service"
	"reno/metrics"
)

// stack is an in-process renoserve on a loopback listener: the service,
// optionally fronting a cluster coordinator with in-process workers.
type stack struct {
	svc     *service.Service
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	rt      *timingRT // the workers' transport (cluster stacks only)
	srv     *http.Server
	base    string
	client  *http.Client
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

type stackConfig struct {
	storeDir string
	workers  int // in-process cluster workers of capacity 1; 0 = no cluster
}

// poolWidth is how many cells the stack simulates at once.
func (sc stackConfig) poolWidth() int {
	if sc.workers > 0 {
		return sc.workers
	}
	return runtime.NumCPU()
}

func startStack(e *env, sc stackConfig) (*stack, error) {
	st := &stack{}
	cfg := service.Config{Workers: runtime.NumCPU(), QueueDepth: 4096, StoreDir: sc.storeDir}
	if sc.workers > 0 {
		st.coord = cluster.NewCoordinator(cluster.CoordinatorConfig{})
		cfg.Dispatcher = st.coord
	}
	svc, err := service.New(cfg)
	if err != nil {
		if st.coord != nil {
			st.coord.Close()
		}
		return nil, err
	}
	st.svc = svc
	h := service.NewHandler(svc)
	if st.coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", st.coord.Handler())
		mux.Handle("/", h)
		h = mux
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = &http.Server{Handler: h}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		st.srv.Serve(ln)
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}

	if sc.workers > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		st.stop = cancel
		store, err := service.OpenDiskStore(sc.storeDir)
		if err != nil {
			st.close()
			return nil, err
		}
		st.rt = &timingRT{base: &http.Transport{MaxIdleConnsPerHost: 16}, tr: e.tr}
		for i := 0; i < sc.workers; i++ {
			w, err := cluster.NewWorker(cluster.WorkerConfig{
				ID:           fmt.Sprintf("w%d", i+1),
				Coordinators: []string{st.base},
				Capacity:     1,
				// A short idle poll keeps a worker's pickup delay small
				// next to a grid's wall time.
				Poll:   20 * time.Millisecond,
				Store:  store,
				Client: &http.Client{Transport: st.rt, Timeout: 10 * time.Second},
			})
			if err != nil {
				st.close()
				return nil, err
			}
			st.workers = append(st.workers, w)
			st.wg.Add(1)
			go func() {
				defer st.wg.Done()
				w.Run(ctx)
			}()
		}
	}
	resp, err := st.client.Get(st.base + "/v1/healthz")
	if err != nil {
		st.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return st, nil
}

// setupTrials is how many times each stack is started, one set-up timing
// per start, so setup_s is a median of many.
const setupTrials = 10

// openStack starts the stack setupTrials times, timing each start for
// setup_s, and keeps the last one running.
func openStack(e *env, sc stackConfig) (*stack, error) {
	var st *stack
	for i := 0; i < setupTrials; i++ {
		if st != nil {
			st.close()
		}
		if err := e.timeSetup(func() (err error) {
			st, err = startStack(e, sc)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// close stops the workers, the listener and the service, and waits for
// every goroutine the stack started. Every submission has finished by
// now, so the server closes its connections at once rather than shutting
// down gracefully: a graceful shutdown waits up to five seconds for a
// connection a cancelled worker request opened but never used.
func (st *stack) close() {
	if st.stop != nil {
		st.stop()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	st.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.svc != nil {
		st.svc.Close(ctx)
	}
	if st.coord != nil {
		st.coord.Close()
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.rt != nil {
		st.rt.base.CloseIdleConnections()
	}
}

// submission is one grid POSTed to the stack and followed to its results.
type submission struct {
	spec []byte
	sent time.Time
	done time.Time // stable results received

	id      string
	err     error
	status  service.Status
	stable  []byte // the stable results envelope
	arrived map[string]time.Time
	span    int
}

func (s *submission) latency() time.Duration { return s.done.Sub(s.sent) }

// cached reports whether every cell was served from the result cache.
func (s *submission) cached() bool { return s.status.Runs > 0 && s.status.CacheHits == s.status.Runs }

// post sends the grid.
func (st *stack) post(ctx context.Context, e *env, s *submission, parent int) {
	s.sent = time.Now()
	s.span = e.tr.begin("service.submit", "", parent)
	h := e.tr.begin("service.post", "", s.span)
	defer e.tr.end(h)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/sweeps", bytes.NewReader(s.spec))
	if err != nil {
		s.err = err
		return
	}
	resp, err := st.client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusAccepted:
		s.err = fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	default:
		var stt service.Status
		s.err = json.Unmarshal(body, &stt)
		s.id = stt.ID
	}
}

// follow reads the job's event stream to its terminal state, then fetches
// the stable results envelope and the final status.
func (st *stack) follow(ctx context.Context, e *env, s *submission) {
	defer e.tr.end(s.span)
	if s.err != nil {
		return
	}
	h := e.tr.begin("service.events", s.id, s.span)
	s.arrived = map[string]time.Time{}
	s.err = st.get(ctx, "/v1/sweeps/"+s.id+"/events", func(body io.Reader) error {
		dec := json.NewDecoder(body)
		for {
			var ev service.Event
			if err := dec.Decode(&ev); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			if ev.Type == "run" {
				s.arrived[ev.Bench+"/"+ev.Tag] = time.Now()
			}
		}
	})
	e.tr.end(h)
	if s.err != nil {
		return
	}
	h = e.tr.begin("service.results", s.id, s.span)
	s.err = st.get(ctx, "/v1/sweeps/"+s.id+"/results", func(body io.Reader) (err error) {
		s.stable, err = io.ReadAll(body)
		return err
	})
	s.done = time.Now()
	e.tr.end(h)
	if s.err != nil {
		return
	}
	s.err = st.get(ctx, "/v1/sweeps/"+s.id, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&s.status)
	})
}

// submit posts s and follows it to completion.
func (st *stack) submit(ctx context.Context, e *env, s *submission, parent int) {
	st.post(ctx, e, s, parent)
	st.follow(ctx, e, s)
}

func (st *stack) get(ctx context.Context, path string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return read(resp.Body)
}

// cellRec is one cell of a finished submission, with its wall time.
type cellRec struct {
	key       string // bench/machine/config[@s<seed>]
	backend   string // "detailed", "approx" or "functional"
	config    string
	wallNS    float64
	insts     float64
	cycles    float64
	ipc       float64
	elimPct   float64
	runHash   string
	failedMsg string
}

// records fetches the submission's results with wall-clock telemetry.
func (st *stack) records(ctx context.Context, s *submission) ([]cellRec, error) {
	var rep *metrics.Report
	err := st.get(ctx, "/v1/sweeps/"+s.id+"/results?stable=0", func(body io.Reader) error {
		data, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		rep, err = metrics.Decode(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cellRecs(rep), nil
}

func cellRecs(rep *metrics.Report) []cellRec {
	out := make([]cellRec, 0, len(rep.Records))
	for _, r := range rep.Records {
		key := r.Label(metrics.LabelBench) + "/" + r.Label(metrics.LabelMachine) + "/" + r.Label(metrics.LabelConfig)
		if sd := r.Label(metrics.LabelSeed); sd != "" {
			key += "@s" + sd
		}
		be := r.Label(metrics.LabelBackend)
		if be == "" {
			be = "detailed"
		}
		val := func(name string) float64 {
			v, _ := r.Metrics.Value(name)
			return v
		}
		out = append(out, cellRec{
			key: key, backend: be, config: r.Label(metrics.LabelConfig),
			wallNS: val(metrics.RunWallNS), insts: val(metrics.PipelineInsts), cycles: val(metrics.PipelineCycles),
			ipc: val(metrics.PipelineIPC), elimPct: val(metrics.RenoElimTotal),
			runHash: r.Attr(metrics.AttrRunHash), failedMsg: r.Attr(metrics.AttrError),
		})
	}
	return out
}

// timingRT times the cluster workers' protocol round trips.
type timingRT struct {
	base *http.Transport
	tr   *tracer
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "cluster." + strings.TrimPrefix(req.URL.Path, "/v1/cluster/")
	if name == "cluster.results" {
		name = "cluster.upload"
	}
	h := t.tr.begin(name, "", 0)
	resp, err := t.base.RoundTrip(req)
	t.tr.end(h)
	t.tr.count(name, 1)
	return resp, err
}

// statusTime parses a service.Status timestamp.
func statusTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// queueWait is how long the job waited for a runner.
func (s *submission) queueWait() time.Duration {
	c, st := statusTime(s.status.Created), statusTime(s.status.Started)
	if c.IsZero() || st.IsZero() {
		return 0
	}
	return st.Sub(c)
}
