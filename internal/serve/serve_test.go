package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ghsom"
	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// servePipe caches one trained pipeline and its generated records across
// the tests of this package.
var servePipe struct {
	once sync.Once
	pipe *ghsom.Pipeline
	recs []kdd.Record
	err  error
}

func testPipeline(t *testing.T) (*ghsom.Pipeline, []kdd.Record) {
	t.Helper()
	if testing.Short() {
		t.Skip("serving integration test; skipped with -short")
	}
	servePipe.once.Do(func() {
		recs, err := trafficgen.Generate(trafficgen.Small(71))
		if err != nil {
			servePipe.err = err
			return
		}
		cfg := ghsom.DefaultPipelineConfig()
		cfg.Model.EpochsPerGrowth = 3
		cfg.Model.FineTuneEpochs = 3
		cfg.Model.MaxGrowIters = 6
		cfg.Model.MaxDepth = 3
		cfg.TrainCapPerLabel = 800
		servePipe.pipe, servePipe.err = ghsom.TrainPipeline(recs, cfg)
		servePipe.recs = recs
	})
	if servePipe.err != nil {
		t.Fatal(servePipe.err)
	}
	return servePipe.pipe, servePipe.recs
}

// testConfig builds a Config with the given batching knobs and
// production-default caps.
func testConfig(maxBatch int, flushEvery time.Duration, par int) Config {
	return Config{
		MaxBatch:    maxBatch,
		FlushEvery:  flushEvery,
		Parallelism: par,
		QueueCap:    DefaultQueueCap,
		MaxBody:     DefaultMaxBodyBytes,
		MaxModel:    DefaultMaxModelBytes,
	}
}

// ndjson renders records as one JSON document per line.
func ndjson(t *testing.T, recs []kdd.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// decodePreds parses an NDJSON prediction stream.
// verdictBytes renders preds as json.Encoder writes them, one document
// per line: the wire contract /detect responses must match byte for byte.
func verdictBytes(t *testing.T, preds []ghsom.Prediction) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range preds {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkVerdictBytes asserts a response body is exactly the json.Encoder
// rendering of what in-process DetectBatch returns for recs.
func checkVerdictBytes(t *testing.T, pipe *ghsom.Pipeline, recs []kdd.Record, body io.Reader) {
	t.Helper()
	got, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := pipe.DetectBatch(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := verdictBytes(t, preds); !bytes.Equal(got, want) {
		t.Fatalf("response differs from json.Encoder over DetectBatch:\n got  %.400q\n want %.400q", got, want)
	}
}

func decodePreds(t *testing.T, r io.Reader) []ghsom.Prediction {
	t.Helper()
	dec := json.NewDecoder(r)
	var out []ghsom.Prediction
	for {
		var p ghsom.Prediction
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestBatcherCoalescesAndMatchesDetectAll submits many small concurrent
// requests through the micro-batcher and verifies every client gets the
// same predictions the direct batch path produces, and that coalescing
// actually happened (fewer batches than jobs).
func TestBatcherCoalescesAndMatchesDetectAll(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[:600]
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(128, 5*time.Millisecond, 0))
	defer b.close()

	const jobRecs = 5
	nJobs := len(eval) / jobRecs
	got := make([][]ghsom.Prediction, nJobs)
	var wg sync.WaitGroup
	errs := make([]error, nJobs)
	for j := 0; j < nJobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got[j], errs[j] = b.submit(context.Background(), eval[j*jobRecs:(j+1)*jobRecs], time.Time{})
		}(j)
	}
	wg.Wait()
	for j := 0; j < nJobs; j++ {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		for i, p := range got[j] {
			if p != want[j*jobRecs+i] {
				t.Fatalf("job %d record %d: batched %+v, direct %+v", j, i, p, want[j*jobRecs+i])
			}
		}
	}
	snap := b.stats.snapshot()
	if snap.Records != int64(nJobs*jobRecs) {
		t.Errorf("stats.records = %d, want %d", snap.Records, nJobs*jobRecs)
	}
	if snap.Batches >= int64(nJobs) {
		t.Errorf("micro-batching did not coalesce: %d batches for %d jobs", snap.Batches, nJobs)
	}
	// Queue-wait aggregates: every dequeued job observed a wait, and a
	// scrape drains the window.
	waits := b.q.TakeWaitStats()
	if waits.Count < int64(nJobs) {
		t.Errorf("wait stats count = %d, want >= %d", waits.Count, nJobs)
	}
	if waits.Max < waits.Mean {
		t.Errorf("wait stats max %v < mean %v", waits.Max, waits.Mean)
	}
	if again := b.q.TakeWaitStats(); again.Count != 0 || again.Max != 0 {
		t.Errorf("second scrape not reset: %+v", again)
	}
}

// TestBatcherIsolatesBadJob verifies a bad record in one client's request
// does not fail co-batched valid requests, and that the failing client's
// error carries its own record index, not the merged batch's.
func TestBatcherIsolatesBadJob(t *testing.T) {
	pipe, recs := testPipeline(t)
	// Large flush window + batch so both jobs coalesce into one flush.
	b := newBatcher(pipe, testConfig(1024, 50*time.Millisecond, 0))
	defer b.close()

	good := recs[:20]
	bad := append([]kdd.Record(nil), recs[20:30]...)
	bad[7].Flag = "BOGUS"

	var wg sync.WaitGroup
	var goodPreds, badPreds []ghsom.Prediction
	var goodErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); goodPreds, goodErr = b.submit(context.Background(), good, time.Time{}) }()
	go func() { defer wg.Done(); badPreds, badErr = b.submit(context.Background(), bad, time.Time{}) }()
	wg.Wait()

	if goodErr != nil {
		t.Fatalf("valid job failed alongside a bad co-batched job: %v", goodErr)
	}
	want, err := pipe.DetectAll(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if goodPreds[i] != want[i] {
			t.Fatalf("record %d: isolated retry %+v, direct %+v", i, goodPreds[i], want[i])
		}
	}
	if badErr == nil || !strings.Contains(badErr.Error(), "record 7") {
		t.Errorf("bad job err = %v, want its own record 7", badErr)
	}
	if badPreds != nil {
		t.Error("bad job received predictions despite error")
	}
}

// TestHandleDetectHTTP exercises the HTTP surface end to end.
func TestHandleDetectHTTP(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[100:160]
	cfg := testConfig(64, 2*time.Millisecond, 0)
	cfg.Instance = "test-replica-1"
	reg := NewRegistry(cfg)
	defer reg.Close()
	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if inst := resp.Header.Get(InstanceHeader); inst != "test-replica-1" {
		t.Errorf("%s = %q, want test-replica-1", InstanceHeader, inst)
	}
	checkVerdictBytes(t, pipe, eval, resp.Body)

	// Malformed and empty bodies are client errors.
	for _, body := range []string{"", "{not json}"} {
		resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Stats reflect the served traffic and carry the instance identity.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap StatsView
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Records < int64(len(eval)) || snap.Batches < 1 {
		t.Errorf("stats = %+v, want >= %d records in >= 1 batch", snap, len(eval))
	}
	if snap.Instance != "test-replica-1" {
		t.Errorf("stats instance = %q, want test-replica-1", snap.Instance)
	}
	if snap.Draining {
		t.Error("stats report draining on a serving registry")
	}
	if snap.RetryAfterSec < 1 {
		t.Errorf("retryAfterSec = %d, want >= 1", snap.RetryAfterSec)
	}
}

// altPipeline trains a second, distinguishable pipeline for swap tests.
func altPipeline(t *testing.T, recs []kdd.Record) *ghsom.Pipeline {
	t.Helper()
	cfg := ghsom.DefaultPipelineConfig()
	cfg.Model.EpochsPerGrowth = 3
	cfg.Model.FineTuneEpochs = 3
	cfg.Model.MaxGrowIters = 4
	cfg.Model.MaxDepth = 2
	cfg.Model.Seed = 99
	cfg.TrainCapPerLabel = 400
	pipe, err := ghsom.TrainPipeline(recs[:2000], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// TestRegistryHotSwapUnderLoad hammers /detect from concurrent clients
// while a new model is hot-swapped in via POST /model: no request may
// fail, be dropped, or be torn (every response must match one model's
// predictions wholesale), and traffic after the swap must be served by
// the new model.
func TestRegistryHotSwapUnderLoad(t *testing.T) {
	pipeA, recs := testPipeline(t)
	pipeB := altPipeline(t, recs)
	eval := recs[:40]
	wantA, err := pipeA.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := pipeB.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(testConfig(64, time.Millisecond, 0))
	defer reg.Close()
	reg.Swap(DefaultModelName, pipeA)
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	body := ndjson(t, eval)
	matches := func(preds []ghsom.Prediction) string {
		if len(preds) != len(eval) {
			return "wrong count"
		}
		a, b := true, true
		for i := range preds {
			if preds[i] != wantA[i] {
				a = false
			}
			if preds[i] != wantB[i] {
				b = false
			}
		}
		switch {
		case a:
			return "A"
		case b:
			return "B"
		default:
			return "torn"
		}
	}

	const workers = 4
	const reqsPerWorker = 25
	results := make([][]string, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reqsPerWorker; r++ {
				resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(body))
				if err != nil {
					errs[w] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					errs[w] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				preds := decodePreds(t, resp.Body)
				resp.Body.Close()
				results[w] = append(results[w], matches(preds))
			}
		}(w)
	}

	// Swap to model B mid-load.
	var envB bytes.Buffer
	if err := pipeB.Save(&envB); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	resp, err := http.Post(srv.URL+"/model", "application/octet-stream", bytes.NewReader(envB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var swapped ModelView
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status = %d", resp.StatusCode)
	}
	if swapped.Swaps != 1 || swapped.EnvelopeVersion != 3 {
		t.Errorf("swap view = %+v, want swaps=1 envelopeVersion=3", swapped)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	sawA, sawB := false, false
	for w := range results {
		if len(results[w]) != reqsPerWorker {
			t.Fatalf("worker %d served %d of %d requests", w, len(results[w]), reqsPerWorker)
		}
		for r, m := range results[w] {
			switch m {
			case "A":
				sawA = true
			case "B":
				sawB = true
			default:
				t.Fatalf("worker %d request %d: %s response", w, r, m)
			}
		}
	}
	if !sawA {
		t.Error("no request was served by the original model")
	}
	_ = sawB // timing-dependent: the swap may land after most workers finish

	// After the swap, traffic must come from model B.
	resp, err = http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	preds := decodePreds(t, resp.Body)
	resp.Body.Close()
	if m := matches(preds); m != "B" {
		t.Fatalf("post-swap response served by %s, want B", m)
	}
}

// TestRegistryNamedModels exercises per-request model selection and the
// /models listing.
func TestRegistryNamedModels(t *testing.T) {
	pipeA, recs := testPipeline(t)
	pipeB := altPipeline(t, recs)
	eval := recs[50:70]
	wantA, err := pipeA.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := pipeB.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(testConfig(64, time.Millisecond, 0))
	defer reg.Close()
	reg.Swap(DefaultModelName, pipeA)
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	// Unknown model name is a 404.
	resp, err := http.Post(srv.URL+"/detect?model=nope", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}

	// Create a named entry via POST /model?name=canary (201 Created).
	var envB bytes.Buffer
	if err := pipeB.Save(&envB); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/model?name=canary", "application/octet-stream", bytes.NewReader(envB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201", resp.StatusCode)
	}

	// Per-request selection routes to the right model.
	check := func(query string, want []ghsom.Prediction) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/detect"+query, "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		preds := decodePreds(t, resp.Body)
		if len(preds) != len(want) {
			t.Fatalf("%s: got %d predictions, want %d", query, len(preds), len(want))
		}
		for i := range preds {
			if preds[i] != want[i] {
				t.Fatalf("%s record %d: got %+v, want %+v", query, i, preds[i], want[i])
			}
		}
	}
	check("", wantA)
	check("?model=default", wantA)
	check("?model=canary", wantB)

	// Listing shows both entries with their envelope versions and shapes.
	lresp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var views []ModelView
	if err := json.NewDecoder(lresp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Name != "canary" || views[1].Name != "default" {
		t.Fatalf("listing = %+v", views)
	}
	for _, v := range views {
		if v.EnvelopeVersion != 3 || v.Nodes < 1 || v.Units < 1 || v.ArenaBytes < 1 {
			t.Errorf("listing entry %+v missing model metadata", v)
		}
	}

	// A malformed envelope upload is rejected without disturbing the
	// registry.
	resp, err = http.Post(srv.URL+"/model?name=canary", "application/octet-stream", strings.NewReader("not an envelope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad envelope status = %d, want 400", resp.StatusCode)
	}
	check("?model=canary", wantB)

	// DELETE unloads the canary; the default model is protected.
	del := func(query string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/model"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("?name=default"); code != http.StatusBadRequest {
		t.Fatalf("deleting default = %d, want 400", code)
	}
	if code := del("?name=canary"); code != http.StatusNoContent {
		t.Fatalf("deleting canary = %d, want 204", code)
	}
	if code := del("?name=canary"); code != http.StatusNotFound {
		t.Fatalf("re-deleting canary = %d, want 404", code)
	}
	resp, err = http.Post(srv.URL+"/detect?model=canary", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detect on unloaded model = %d, want 404", resp.StatusCode)
	}
	check("", wantA) // default still serves
}

// columnarBody renders records as one columnar wire frame.
func columnarBody(t *testing.T, recs []kdd.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kdd.WriteColumnarBatch(&buf, recs, kdd.ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandleDetectColumnar posts columnar frames to /detect and checks
// the verdicts match the NDJSON path bit for bit, across single- and
// multi-frame bodies.
func TestHandleDetectColumnar(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[300:500]
	b := newBatcher(pipe, testConfig(64, 2*time.Millisecond, 0))
	defer b.close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", b.handleDetect)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Two frames in one body: predictions must stream out frame by frame
	// in record order.
	body := append(columnarBody(t, eval[:120]), columnarBody(t, eval[120:])...)
	resp, err := http.Post(srv.URL+"/detect", kdd.ColumnarContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("response Content-Type = %q", ct)
	}
	checkVerdictBytes(t, pipe, eval, resp.Body)

	// Structurally broken frames and empty bodies are client errors.
	for _, bad := range [][]byte{nil, []byte("GHSOMWB1 not a frame"), body[:len(body)-5]} {
		resp, err := http.Post(srv.URL+"/detect", kdd.ColumnarContentType, bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// A truncated *second* frame lands after output began: the server
		// has already committed a 200 and just ends the stream.
		wantCode := http.StatusBadRequest
		if len(bad) > len(body)/2 {
			wantCode = http.StatusOK
		}
		if resp.StatusCode != wantCode {
			t.Errorf("bad body (%d bytes): status %d, want %d", len(bad), resp.StatusCode, wantCode)
		}
	}

	// A frame with an unknown protocol symbol is a 422, like the NDJSON
	// path's unprocessable records.
	badRecs := append([]kdd.Record(nil), eval[:10]...)
	badRecs[3].Protocol = "sctp"
	resp, err = http.Post(srv.URL+"/detect", kdd.ColumnarContentType, bytes.NewReader(columnarBody(t, badRecs)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "record 3") {
		t.Errorf("unknown protocol: status %d body %q, want 422 naming record 3", resp.StatusCode, raw)
	}
}

// TestDetectBodyCap413 pins the -max-body contract on both wire formats:
// a body over the cap is rejected with 413, under it with 200.
func TestDetectBodyCap413(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[:64]
	b := newBatcher(pipe, testConfig(64, 2*time.Millisecond, 0))
	b.maxBody = 2048 // tiny cap for the test
	defer b.close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", b.handleDetect)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		name string
		ct   string
		body []byte
	}{
		{"ndjson", "application/x-ndjson", ndjson(t, eval)},
		{"columnar", kdd.ColumnarContentType, columnarBody(t, eval)},
	} {
		if len(tc.body) <= 2048 {
			t.Fatalf("%s test body only %d bytes, cap not exercised", tc.name, len(tc.body))
		}
		resp, err := http.Post(srv.URL+"/detect", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over-cap body: status %d, want 413", tc.name, resp.StatusCode)
		}
		small, err := http.Post(srv.URL+"/detect", tc.ct, bytes.NewReader(tc.body[:0]))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, small.Body)
		small.Body.Close()
		if small.StatusCode != http.StatusBadRequest {
			t.Errorf("%s empty body: status %d, want 400", tc.name, small.StatusCode)
		}
	}
	// An under-cap request still succeeds.
	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(ndjson(t, eval[:1])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("under-cap body: status %d, want 200", resp.StatusCode)
	}
}

// TestModelUploadCap413 pins the -max-model contract on POST /model.
func TestModelUploadCap413(t *testing.T) {
	pipe, _ := testPipeline(t)
	cfg := testConfig(64, time.Millisecond, 0)
	cfg.MaxModel = 4096
	reg := NewRegistry(cfg)
	defer reg.Close()
	reg.Swap(DefaultModelName, pipe)
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		t.Fatal(err)
	}
	if env.Len() <= 4096 {
		t.Fatalf("envelope only %d bytes, cap not exercised", env.Len())
	}
	resp, err := http.Post(srv.URL+"/model?name=big", "application/octet-stream", bytes.NewReader(env.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap envelope: status %d, want 413", resp.StatusCode)
	}
	if reg.get("big") != nil {
		t.Error("over-cap upload created a registry entry")
	}
}
