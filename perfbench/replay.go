package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"time"

	"ghsom"
	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/preprocess"
	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// The traced replay runs serially after the load phases, so each layer
// call has the CPUs to itself.
const (
	// replayPasses and trainReplayPasses repeat the serving and the
	// train replay; every per-layer value is the median over the passes.
	replayPasses      = 5
	trainReplayPasses = 3
	// replayRecords bounds the records one serving-replay pass sends.
	replayRecords = 16384
	// somRows, somSide and somEpochs shape the som kernel replay: a
	// map of the largest size GHSOM grows (MaxMapUnits 100) trained on
	// the first somRows scaled training records.
	somRows   = 8192
	somSide   = 10
	somEpochs = 2
	// partsBound is how far the replayed layer spans may sum from the
	// whole DetectBatch span.
	partsBound = 0.25
)

// trainingInputs are the records the train replay runs TrainPipeline's
// steps on: KDD99-like traffic for the batch rule and Small-scenario
// traffic for the online rule.
type trainingInputs struct {
	train, small []ghsom.Record
}

// kit is the encoder and scaler the train replay rebuilt. A trained
// pipeline does not expose its own, so the serving replay uses these and
// checks that they give the pipeline's verdicts.
type kit struct {
	enc    *kdd.Encoder
	scaler *preprocess.MinMaxScaler
}

// replay runs the train replay and then the serving replay over reqs.
// envPath is the served envelope; st the running replica, to which the
// replay adds a gateway when it has none.
func replay(r *run, st *stack, reqs *requests, columnar bool, envPath string, in trainingInputs) error {
	k, err := replayTraining(r, in, st.pipe)
	if err != nil {
		return err
	}
	if st.front == nil {
		if err := st.addGateway(); err != nil {
			return err
		}
	}
	p := newPoster(r, reqs, "")
	defer p.client.CloseIdleConnections()
	return replayServing(r, st, p, columnar, envPath, k)
}

// encodeScale encodes and scales records as TrainPipeline does, one
// public step per span: it returns the encoder, the fitted scaler and the
// scaled row-major matrix.
func encodeScale(r *run, parent int, records []ghsom.Record, logTransform bool) (*kdd.Encoder, *preprocess.MinMaxScaler, []float64, error) {
	n := len(records)
	var enc *kdd.Encoder
	var flat []float64
	err := r.tr.do("kdd.encode", parent, 0, n, func() error {
		enc = kdd.NewEncoder(records, kdd.EncoderConfig{LogTransform: logTransform})
		flat = make([]float64, n*enc.Dim())
		return enc.EncodeBatch(records, flat)
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("encode: %w", err)
	}
	d := enc.Dim()
	scaler := &preprocess.MinMaxScaler{}
	err = r.tr.do("preprocess.fit_scale", parent, 0, n, func() error {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
		if err := scaler.Fit(rows); err != nil {
			return err
		}
		return scaler.TransformBatch(flat, d)
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scale: %w", err)
	}
	return enc, scaler, flat, nil
}

// trainModel runs the label cap and core.TrainMatrix under a span named
// name, as TrainPipeline does.
func trainModel(r *run, parent int, name string, records []ghsom.Record, flat []float64, d int, cfg ghsom.PipelineConfig) (*core.GHSOM, error) {
	mat, err := vecmath.MatrixOver(flat, len(records), d)
	if err != nil {
		return nil, err
	}
	var idx []int
	if cfg.TrainCapPerLabel > 0 {
		idx = preprocess.CapPerKey(kdd.Labels(records), cfg.TrainCapPerLabel, rand.New(rand.NewSource(cfg.Seed)))
	}
	var model *core.GHSOM
	err = r.tr.do(name, parent, 0, len(records), func() (err error) {
		model, err = core.TrainMatrix(mat, idx, cfg.Model)
		return err
	})
	return model, err
}

// replayTraining calls each public step of TrainPipeline in turn, for the
// batch rule on the KDD99-like records and the online rule on the Small
// ones, then times the som kernels alone. served is the pipeline the
// replay must rebuild.
func replayTraining(r *run, in trainingInputs, served *ghsom.Pipeline) (*kit, error) {
	cfg := ghsom.DefaultPipelineConfig()
	vals := map[string][]float64{}
	var k kit
	for pass := 0; pass < trainReplayPasses; pass++ {
		root := r.tr.start("replay.train", 0, int64(pass), time.Now())
		enc, scaler, flat, err := encodeScale(r, root, in.train, cfg.LogTransform)
		if err != nil {
			return nil, err
		}
		k = kit{enc: enc, scaler: scaler}
		d := enc.Dim()
		model, err := trainModel(r, root, "core.train_batch", in.train, flat, d, cfg)
		if err != nil {
			return nil, fmt.Errorf("train batch: %w", err)
		}
		var comp *core.Compiled
		r.tr.do("core.compile", root, 0, 0, func() error { comp = core.Compile(model); return nil })
		n := len(in.train)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
		err = r.tr.do("anomaly.fit", root, 0, n, func() error {
			_, err := anomaly.Fit(anomaly.NewGHSOMQuantizer(comp), rows, kdd.Labels(in.train), cfg.Detector)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fit detector: %w", err)
		}
		if comp.TotalUnits() != served.Compiled().TotalUnits() || comp.NumNodes() != served.Compiled().NumNodes() {
			r.wrong("train replay built %d units in %d nodes, the served model has %d in %d",
				comp.TotalUnits(), comp.NumNodes(), served.Compiled().TotalUnits(), served.Compiled().NumNodes())
		}
		vals["core.units"] = append(vals["core.units"], float64(comp.TotalUnits()))
		vals["core.nodes"] = append(vals["core.nodes"], float64(comp.NumNodes()))

		// The online rule: only core.TrainMatrix is timed; its encode and
		// scale spans hang off a separate root so they do not mix with the
		// batch rule's.
		prep := r.tr.start("replay.train_online_prep", 0, int64(pass), time.Now())
		senc, _, sflat, err := encodeScale(r, prep, in.small, cfg.LogTransform)
		r.tr.finish(prep, time.Now(), len(in.small))
		if err != nil {
			return nil, err
		}
		if _, err := trainModel(r, root, "core.train_online", in.small, sflat, senc.Dim(), onlineConfig()); err != nil {
			return nil, fmt.Errorf("train online: %w", err)
		}
		if err := replaySOM(r, root, flat, d, n); err != nil {
			return nil, err
		}
		r.tr.finish(root, time.Now(), n)

		tot := r.tr.layerTotals(map[int]bool{root: true})
		for _, name := range []string{"kdd.encode", "preprocess.fit_scale", "core.train_batch", "core.train_online", "core.compile", "anomaly.fit"} {
			vals[name+"_s"] = append(vals[name+"_s"], float64(tot[name].ns)/1e9)
		}
		for _, name := range []string{"som.bmu_pass", "som.online_epoch", "som.batch_epoch"} {
			vals[name+"_ns_per_rec"] = append(vals[name+"_ns_per_rec"], float64(tot[name].ns)/float64(tot[name].count))
		}
	}
	for name, v := range vals {
		unit := "s"
		switch {
		case name == "core.units" || name == "core.nodes":
			unit = "count"
		case strings.HasSuffix(name, "_ns_per_rec"):
			unit = "ns"
		}
		r.layer(name, median(v), unit)
	}
	return &k, nil
}

// replaySOM times the som kernels on a fresh somSide x somSide map:
// one serial BMU pass, and somEpochs epochs of each training rule.
func replaySOM(r *run, parent int, flat []float64, d, n int) error {
	rows := min(somRows, n)
	sample := make([][]float64, rows)
	for i := range sample {
		sample[i] = flat[i*d : (i+1)*d]
	}
	m, err := som.New(somSide, somSide, d)
	if err != nil {
		return err
	}
	if err := m.InitSample(sample, rand.New(rand.NewSource(1))); err != nil {
		return err
	}
	mat, err := vecmath.MatrixOver(flat[:rows*d], rows, d)
	if err != nil {
		return err
	}
	bmus, d2s := make([]int, rows), make([]float64, rows)
	if err := r.tr.do("som.bmu_pass", parent, 0, rows, func() error {
		return m.AssignFlat(flat[:rows*d], rows, bmus, d2s, 1)
	}); err != nil {
		return fmt.Errorf("som bmu pass: %w", err)
	}
	tc := som.DefaultTrainConfig(rand.New(rand.NewSource(1)))
	tc.Epochs = somEpochs
	tc.SkipEpochMQE = true
	tc.Parallelism = 1
	online, batch := m.Clone(), m.Clone()
	if err := r.tr.do("som.online_epoch", parent, 0, rows*somEpochs, func() error {
		_, err := online.TrainOnlineView(mat.View(), tc)
		return err
	}); err != nil {
		return fmt.Errorf("som online epochs: %w", err)
	}
	if err := r.tr.do("som.batch_epoch", parent, 0, rows*somEpochs, func() error {
		_, err := batch.TrainBatchView(mat.View(), tc)
		return err
	}); err != nil {
		return fmt.Errorf("som batch epochs: %w", err)
	}
	return nil
}

// replayServing sends each request body through every serving layer in
// turn, one call per span: parse, encode, scale, route, classify, the
// whole detect, the replica's handler without a socket, the replica over
// loopback and the gateway over loopback. The layer calls run on a
// one-worker copy of the served model, so their spans add up to the
// detect span.
func replayServing(r *run, st *stack, p *poster, columnar bool, envPath string, k *kit) error {
	rp, err := ghsom.LoadPipelineFile(envPath, columnar)
	if err != nil {
		return fmt.Errorf("load replay model: %w", err)
	}
	defer rp.Close()
	rp.SetParallelism(1)
	reqs := p.reqs
	perReq := reqs.counts[0]
	nReq := min(len(reqs.bodies), max(1, replayRecords/perReq))
	d := k.enc.Dim()
	flat := make([]float64, perReq*d)
	places := make([]core.Placement, perReq)
	out := make([]ghsom.Prediction, perReq)
	var detected []ghsom.Prediction
	parser := kdd.NewRecordParser(nil)
	var recs []kdd.Record
	cb := new(kdd.ColumnarBatch)
	handler := st.reg.Mux()
	comp, det := rp.Compiled(), rp.Detector()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var buf bytes.Buffer

	vals := map[string][]float64{}
	var parts []float64 // (encode + scale + classify) / detect, per pass
	for pass := 0; pass < replayPasses; pass++ {
		roots := map[int]bool{}
		var records, respBytes int
		var detectAllocs uint64
		for q := 0; q < nReq; q++ {
			body, n, req := reqs.bodies[q], reqs.counts[q], int64(q)
			root := r.tr.start("replay.request", 0, req, time.Now())
			roots[root] = true
			records += n
			check := func(what string, got []byte) {
				if !bytes.Equal(got, reqs.want[q]) {
					r.wrong("replay request %d: %s: %v", q, what, errMismatch)
				}
			}
			// route and classify are subtracted from each other, so both
			// are timed with the model already in cache: each runs once
			// untimed first.
			steps := []struct {
				name string
				warm bool
				fn   func() error
			}{
				{"kdd.parse", false, func() (err error) {
					if columnar {
						return kdd.ReadColumnarBatch(bytes.NewReader(body), cb, kdd.DefaultColumnarLimits)
					}
					parser.Reset(bytes.NewReader(body))
					recs, err = parser.AppendAll(recs[:0], n)
					return err
				}},
				{"kdd.encode", false, func() error {
					if columnar {
						if err := k.enc.BindColumnar(cb); err != nil {
							return err
						}
						return k.enc.EncodeColumnarRows(cb, 0, n, flat)
					}
					return k.enc.EncodeBatch(recs, flat)
				}},
				{"preprocess.scale", false, func() error { return k.scaler.TransformBatch(flat[:n*d], d) }},
				{"core.route", true, func() error { return comp.RouteTrainedFlat(flat, n, places, 1) }},
				{"anomaly.classify", true, func() error { return det.ClassifyBatchAt(flat, n, d, out, 1) }},
			}
			for _, s := range steps {
				if s.warm {
					if err := s.fn(); err != nil {
						return fmt.Errorf("replay %s: %w", s.name, err)
					}
				}
				if err := r.tr.do(s.name, root, req, n, s.fn); err != nil {
					return fmt.Errorf("replay %s: %w", s.name, err)
				}
			}
			got, err := verdictBytes(out[:n])
			if err != nil {
				return err
			}
			check("layer by layer", got)

			before := readAllocs(allocs)
			err = r.tr.do("ghsom.detect", root, req, n, func() (err error) {
				if columnar {
					detected, err = rp.DetectColumnar(cb, detected)
				} else {
					detected, err = rp.DetectBatch(recs, detected)
				}
				return err
			})
			detectAllocs += readAllocs(allocs) - before
			if err != nil {
				return fmt.Errorf("replay detect: %w", err)
			}
			if got, err = verdictBytes(detected); err != nil {
				return err
			}
			check("detect", got)

			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body))
			hreq.Header.Set("Content-Type", reqs.contentType)
			r.tr.do("serve.handler", root, req, n, func() error { handler.ServeHTTP(rec, hreq); return nil })
			if rec.Code != http.StatusOK {
				return fmt.Errorf("replay handler: status %d", rec.Code)
			}
			respBytes += rec.Body.Len()
			check("handler", rec.Body.Bytes())

			for _, hop := range []struct{ name, url string }{{"net.replica", st.replica.url}, {"cluster.gateway", st.front.url}} {
				err := r.tr.do(hop.name, root, req, n, func() error { return p.post(hop.url, q, &buf) })
				if err != nil {
					return fmt.Errorf("replay %s: %w", hop.name, err)
				}
			}
			r.tr.finish(root, time.Now(), n)
		}
		tot := r.tr.layerTotals(roots)
		perRec := func(name string) float64 { return float64(tot[name].ns) / float64(records) }
		perReqNs := func(name string) float64 { return float64(tot[name].ns) / float64(nReq) }
		add := func(name string, v float64) { vals[name] = append(vals[name], v) }
		add("kdd.parse_ns_per_rec", perRec("kdd.parse"))
		add("kdd.encode_ns_per_rec", perRec("kdd.encode"))
		add("preprocess.scale_ns_per_rec", perRec("preprocess.scale"))
		add("core.route_ns_per_rec", perRec("core.route"))
		add("anomaly.classify_self_ns_per_rec", perRec("anomaly.classify")-perRec("core.route"))
		add("ghsom.detect_ns_per_rec", perRec("ghsom.detect"))
		parts = append(parts, (perRec("kdd.encode")+perRec("preprocess.scale")+perRec("anomaly.classify"))/perRec("ghsom.detect"))
		add("ghsom.detect_allocs_per_rec", float64(detectAllocs)/float64(records))
		add("serve.handler_ns_per_rec", perRec("serve.handler"))
		add("serve.self_ns_per_rec", perRec("serve.handler")-perRec("kdd.parse")-perRec("ghsom.detect"))
		add("serve.verdict_bytes_per_rec", float64(respBytes)/float64(records))
		add("net.rtt_overhead_ns_per_req", perReqNs("net.replica")-perReqNs("serve.handler"))
		add("cluster.proxy_ns_per_req", perReqNs("cluster.gateway")-perReqNs("net.replica"))
	}
	units := map[string]string{
		"ghsom.detect_allocs_per_rec": "count",
		"serve.verdict_bytes_per_rec": "bytes",
	}
	for name, v := range vals {
		unit, ok := units[name]
		if !ok {
			unit = "ns"
		}
		r.layer(name, median(v), unit)
	}
	ratio := median(parts)
	printLine(map[string]any{"replay": map[string]any{
		"requests": nReq, "records_per_request": perReq, "passes": replayPasses, "parts_over_detect": ratio,
	}})
	if math.Abs(ratio-1) > partsBound {
		r.wrong("replayed layer spans sum to %.3f of the detect span, outside 1±%.2f", ratio, partsBound)
	}
	return nil
}

func readAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}
