package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ghsom"
	"ghsom/internal/cluster"
	"ghsom/internal/kdd"
	"ghsom/internal/serve"
)

// servingSpec is one HTTP serving workload.
type servingSpec struct {
	name string
	// columnar sends GHSOMWB1 frames through the gateway to a replica
	// whose model is mmap-loaded; otherwise NDJSON goes straight to a
	// replica whose model is heap-loaded.
	columnar bool
	// perRequest is the records in one request body.
	perRequest int
	// rate is the open-loop phase's fixed offered load in requests/s,
	// about half of what the replica sustains on a 2-CPU host.
	rate float64
}

var (
	ndjsonSpec   = servingSpec{name: "serve-ndjson", perRequest: 64, rate: 400}
	columnarSpec = servingSpec{name: "gateway-columnar", columnar: true, perRequest: 1024, rate: 200}
)

// The closed and open phases split --seconds; the warm-up, the set-ups
// and the trainings come on top of it. The replica flushes a micro-batch
// at 256 records or after 1 ms.
const (
	warmup        = time.Second
	closedShare   = 0.5
	replicaBatch  = 256
	replicaFlush  = time.Millisecond
	healthTimeout = 30 * time.Second
)

// requests is a workload's pool of request bodies with the verdict bytes
// each must come back with.
type requests struct {
	contentType string
	bodies      [][]byte
	counts      []int // records in each body
	// want is the NDJSON verdict stream DetectBatch gives in-process
	// for each body's records.
	want [][]byte
}

// buildRequests cuts held into bodies of perRequest records and computes
// each body's expected verdicts with the in-process pipeline.
func buildRequests(pipe *ghsom.Pipeline, held []ghsom.Record, perRequest int, columnar bool) (*requests, error) {
	reqs := &requests{contentType: "application/x-ndjson"}
	if columnar {
		reqs.contentType = kdd.ColumnarContentType
	}
	var preds []ghsom.Prediction
	for lo := 0; lo+perRequest <= len(held); lo += perRequest {
		recs := held[lo : lo+perRequest]
		var body bytes.Buffer
		if columnar {
			if err := ghsom.WriteColumnarBatch(&body, recs, ghsom.ColumnarWriteOptions{}); err != nil {
				return nil, fmt.Errorf("columnar body: %w", err)
			}
		} else {
			enc := json.NewEncoder(&body)
			for i := range recs {
				if err := enc.Encode(&recs[i]); err != nil {
					return nil, fmt.Errorf("ndjson body: %w", err)
				}
			}
		}
		var err error
		if preds, err = pipe.DetectBatch(recs, preds); err != nil {
			return nil, fmt.Errorf("oracle verdicts: %w", err)
		}
		want, err := verdictBytes(preds)
		if err != nil {
			return nil, err
		}
		reqs.bodies = append(reqs.bodies, body.Bytes())
		reqs.counts = append(reqs.counts, len(recs))
		reqs.want = append(reqs.want, want)
	}
	if len(reqs.bodies) == 0 {
		return nil, errors.New("held-out traffic shorter than one request")
	}
	return reqs, nil
}

// verdictBytes encodes predictions the way the replica's /detect writes
// them: one JSON object per line.
func verdictBytes(preds []ghsom.Prediction) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range preds {
		if err := enc.Encode(&preds[i]); err != nil {
			return nil, fmt.Errorf("encode verdict: %w", err)
		}
	}
	return b.Bytes(), nil
}

// server is one loopback HTTP server and the goroutine serving it.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// stack is one running replica, optionally behind a gateway.
type stack struct {
	pipe    *ghsom.Pipeline
	reg     *serve.Registry
	replica *server
	gw      *cluster.Gateway
	front   *server // the gateway's server, nil without a gateway
}

// startStack loads the envelope at path (mapped or onto the heap), serves
// it from a replica, and puts a gateway in front when gateway is set. It
// returns once the outermost server's /healthz answers 200, along with
// the model load time in ms.
func startStack(path string, mapped, gateway bool) (*stack, float64, error) {
	st := &stack{}
	loadStart := time.Now()
	var err error
	if mapped {
		st.pipe, err = ghsom.LoadPipelineFile(path, true)
	} else {
		st.pipe, err = loadHeap(path)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("load model: %w", err)
	}
	loadMs := ms(time.Since(loadStart))
	st.reg = serve.NewRegistry(serve.Config{Instance: "perfbench-replica", MaxBatch: replicaBatch, FlushEvery: replicaFlush})
	if _, _, err := st.reg.Swap(serve.DefaultModelName, st.pipe); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("install model: %w", err)
	}
	if st.replica, err = listen(st.reg.Mux()); err != nil {
		st.close()
		return nil, 0, err
	}
	if gateway {
		if err := st.addGateway(); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	if err := waitHealthy(st.url()); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, loadMs, nil
}

func loadHeap(path string) (*ghsom.Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ghsom.LoadPipeline(f)
}

// addGateway fronts the replica with a gateway: replication 1, no
// hedging, default retries.
func (st *stack) addGateway() error {
	gw, err := cluster.New(cluster.Config{
		Replicas:    []string{st.replica.url},
		Instance:    "perfbench-gateway",
		Replication: 1,
	})
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	st.gw = gw
	gw.CheckNow()
	st.front, err = listen(gw.Handler())
	if err != nil {
		return err
	}
	return waitHealthy(st.front.url)
}

// url is where the workload's traffic goes: the gateway if there is one.
func (st *stack) url() string {
	if st.front != nil {
		return st.front.url
	}
	return st.replica.url
}

func (st *stack) close() {
	if st.front != nil {
		st.front.close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.replica != nil {
		st.replica.close()
	}
	if st.reg != nil {
		st.reg.Close()
	}
	if st.pipe != nil {
		st.pipe.Close()
	}
}

func waitHealthy(base string) error {
	client := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(healthTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s/healthz not 200 within %v", base, healthTimeout)
}

// poster sends request bodies to one base URL and checks every verdict
// byte for byte against the oracle. It keeps nproc connections and one
// response buffer per load goroutine.
type poster struct {
	r      *run
	reqs   *requests
	base   string
	client *http.Client
	bufs   []bytes.Buffer
}

func newPoster(r *run, reqs *requests, base string) *poster {
	return &poster{
		r:    r,
		reqs: reqs,
		base: base,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true},
			Timeout:   30 * time.Second,
		},
		bufs: make([]bytes.Buffer, nproc()),
	}
}

var errMismatch = errors.New("verdicts differ from in-process DetectBatch")

// post sends body k and returns the response, read into buf.
func (p *poster) post(base string, k int, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, base+"/detect", bytes.NewReader(p.reqs.bodies[k]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", p.reqs.contentType)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return p.check(k, buf.Bytes())
}

// check compares a response with request k's oracle verdicts.
func (p *poster) check(k int, got []byte) error {
	if !bytes.Equal(got, p.reqs.want[k]) {
		p.r.wrong("request %d: %v", k, errMismatch)
		return errMismatch
	}
	return nil
}

// send is the sendFunc of the load phases.
func (p *poster) send(worker, i int) (int, error) {
	k := i % len(p.reqs.bodies)
	if err := p.post(p.base, k, &p.bufs[worker]); err != nil {
		return 0, err
	}
	return p.reqs.counts[k], nil
}

// scrape reads the replica's /stats (which also restarts its queue-wait
// window) and, with a gateway, the gateway's routing counters.
func scrape(client *http.Client, st *stack) (serve.StatsView, cluster.Rollup, error) {
	var sv serve.StatsView
	var roll cluster.Rollup
	if err := getJSON(client, st.replica.url+"/stats", &sv); err != nil {
		return sv, roll, err
	}
	if st.front != nil {
		if err := getJSON(client, st.front.url+"/stats", &roll); err != nil {
			return sv, roll, err
		}
	}
	return sv, roll, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reportStats turns two /stats scrapes into the admission and batching
// layer metrics.
func reportStats(r *run, sv0, sv1 serve.StatsView, g0, g1 cluster.Rollup) {
	shed := func(s serve.StatsView) int64 {
		return s.ShedQueueFull + s.ShedDeadline + s.ShedClosed + s.DroppedDeadline
	}
	perBatch := 0.0
	if b := sv1.Batches - sv0.Batches; b > 0 {
		perBatch = float64(sv1.Records-sv0.Records) / float64(b)
	}
	r.layer("serve.records_per_batch", perBatch, "count")
	r.layer("serveq.queue_wait_mean_ms", sv1.QueueWaitMeanMs, "ms")
	r.layer("serveq.shed", float64(shed(sv1)-shed(sv0)), "count")
	r.layer("cluster.retries", float64(g1.Retries-g0.Retries), "count")
	r.layer("cluster.hedges", float64(g1.Hedges-g0.Hedges), "count")
}

// servingSetup is one complete set-up of a serving workload.
type servingSetup struct {
	envelope []byte
	path     string
	st       *stack
	reqs     *requests
	trainCPU float64
	loadMs   float64
	// cpu and wall are the set-up's CPU time and wall time in seconds.
	cpu, wall float64
}

// setUpServing generates training set j and the held-out traffic, trains
// the model with the default batch rule, computes the oracle verdicts,
// saves and reloads the envelope and starts the servers, timing the
// whole as set-up.
func setUpServing(r *run, spec servingSpec, j int) (*servingSetup, error) {
	start, cpu0 := time.Now(), processCPU()
	train, err := generate(ghsom.KDD99Scenario(trainSeed(r.seed, j)))
	if err != nil {
		return nil, err
	}
	held, err := heldOut(r.seed)
	if err != nil {
		return nil, err
	}
	trainCPU0 := processCPU()
	pipe, err := ghsom.TrainPipeline(train, ghsom.DefaultPipelineConfig())
	trainCPU := processCPU() - trainCPU0
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	reqs, err := buildRequests(pipe, held, spec.perRequest, spec.columnar)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.workDir, spec.name+".ghsom")
	env, err := saveEnvelope(pipe, path)
	if err != nil {
		return nil, err
	}
	st, loadMs, err := startStack(path, spec.columnar, spec.columnar)
	if err != nil {
		return nil, err
	}
	return &servingSetup{envelope: env, path: path, st: st, reqs: reqs, trainCPU: trainCPU, loadMs: loadMs,
		cpu: processCPU() - cpu0, wall: time.Since(start).Seconds()}, nil
}

// saveEnvelope writes pipe's envelope to path and returns it.
func saveEnvelope(pipe *ghsom.Pipeline, path string) ([]byte, error) {
	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	if err := os.WriteFile(path, env.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write model: %w", err)
	}
	return env.Bytes(), nil
}

// runServing drives serve-ndjson or gateway-columnar. Each set-up trains
// on another of the run's training sets, last on set 0, whose model
// serves the load. After the load set 0 is trained once more, which must
// give the set-up's envelope byte for byte.
//
// setup_s and train_batch_cpu_s are CPU times: on a shared host the wall
// time of set-up and training follows the other tenants' load, while
// their CPU time follows the work done. The wall times are printed.
func runServing(r *run, spec servingSpec) error {
	var setupCPU, setupWall, loadMs []float64
	batch := make([]*trainer, datasets)
	var su *servingSetup
	for j := datasets - 1; j >= 0; j-- {
		if su != nil {
			su.st.close()
			su = nil
			// Collect the last set-up's garbage but keep its pages, so
			// each training reuses a warm heap instead of faulting pages
			// in afresh, whose cost follows the host's memory pressure.
			runtime.GC()
		}
		var err error
		su, err = setUpServing(r, spec, j)
		r.op(err)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, su.cpu)
		setupWall = append(setupWall, su.wall)
		loadMs = append(loadMs, su.loadMs)
		batch[j] = &trainer{name: fmt.Sprintf("batch-%d", j), cfg: ghsom.DefaultPipelineConfig(),
			cpu: []float64{su.trainCPU}, envelope: su.envelope}
	}
	defer func() { su.st.close() }()
	r.endToEnd("setup_s", median(setupCPU), "s")
	r.layer("wall.setup_s", median(setupWall), "s")
	r.layer("ghsom.load_ms", median(loadMs), "ms")
	printLine(map[string]any{"setup": map[string]any{"count": datasets, "cpu_s": setupCPU, "wall_s": setupWall}})
	printLine(map[string]any{"oracle": map[string]any{
		"requests": len(su.reqs.bodies), "records_per_request": spec.perRequest,
		"verdict_fingerprint": fingerprint(su.reqs.want...),
	}})

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	sv0, g0, err := scrape(client, su.st)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	settle()
	if err := spawnLoadgen(r, loadPlan{
		Workload: r.workload, Seed: r.seed, Trace: r.tr != nil,
		URL: su.st.url(), Rate: spec.rate, Window: r.window,
		ContentType: su.reqs.contentType, Bodies: su.reqs.bodies, Counts: su.reqs.counts, Want: su.reqs.want,
	}); err != nil {
		return err
	}
	sv1, g1, err := scrape(client, su.st)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	reportStats(r, sv0, sv1, g0, g1)

	train, err := generate(ghsom.KDD99Scenario(trainSeed(r.seed, 0)))
	if err != nil {
		return err
	}
	batch[0].records = train
	if err := batch[0].once(r); err != nil {
		return err
	}
	r.endToEnd("train_batch_cpu_s", meanOfMedians(batch), "s")

	if r.tr == nil {
		return nil
	}
	small, err := generate(ghsom.SmallScenario(trainSeed(r.seed, 0)))
	if err != nil {
		return err
	}
	return replay(r, su.st, su.reqs, spec.columnar, su.path, trainingInputs{train: train, small: small})
}
