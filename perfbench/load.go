package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request number i from load goroutine worker and
// returns the records it classified. An error means the request failed
// or its verdicts were wrong.
type sendFunc func(worker, i int) (records int, err error)

// closedSlice is the length of one throughput sample of a closed loop.
const closedSlice = time.Second

// closedLoop runs workers goroutines, each sending its next request as soon
// as the previous one returns, for d. It returns the median over the
// phase's one-second slices of the records classified per second by
// successful requests, so a short stall of the host moves one slice and
// not the result.
//
// A non-nil tick is called with the records classified so far at the
// start of the phase and at the end of each slice, as the clock reaches
// it, so that the caller can pair each slice's records with the CPU time
// the program spent on them.
func closedLoop(r *run, d time.Duration, workers int, phase string, send sendFunc, tick func(records int64)) float64 {
	slices := max(1, int(d/closedSlice))
	perSlice := make([]atomic.Int64, slices)
	var next, total atomic.Int64
	start := time.Now()
	stop := start.Add(time.Duration(slices) * closedSlice)
	var wg sync.WaitGroup
	if tick != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s <= slices; s++ {
				time.Sleep(time.Until(start.Add(time.Duration(s) * closedSlice)))
				tick(total.Load())
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				n, err := send(w, i)
				done := time.Now()
				r.tr.add(phase, 0, int64(i), t0, done, n)
				r.op(err)
				if err != nil {
					continue
				}
				total.Add(int64(n))
				if s := int(done.Sub(start) / closedSlice); s < slices {
					perSlice[s].Add(int64(n))
				}
			}
		}(w)
	}
	wg.Wait()
	rates := make([]float64, slices)
	for s := range perSlice {
		rates[s] = float64(perSlice[s].Load()) / closedSlice.Seconds()
	}
	return median(rates)
}

// openResult summarizes one open-loop phase.
type openResult struct {
	// latency is each request's completion time minus its scheduled
	// send time, in ms, in schedule order; a failed request counts as
	// failedLatencyMs.
	latency []float64
	// genLate is how late a load goroutine that was idle before its slot
	// woke up, in ms: lateness of the generator, not of the program.
	genLate []float64
	// backlogGrowthMs is the mean send lateness over the last quarter of
	// the schedule minus that over the first quarter: it grows when the
	// program cannot keep up with the offered rate.
	backlogGrowthMs float64
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// regardless of how fast responses come back, using workers goroutines
// that each take the next unsent slot. Latency is timed from the slot's
// scheduled time, so a stall also charges the requests queued behind it.
func openLoop(r *run, d time.Duration, rate float64, workers int, send sendFunc) openResult {
	slots := int(d.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	latency := make([]float64, slots)
	sendLate := make([]float64, slots)
	genLate := make([][]float64, workers)
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= slots {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				idle := time.Now().Before(due)
				if idle {
					time.Sleep(time.Until(due))
				}
				sent := time.Now()
				if idle {
					genLate[w] = append(genLate[w], ms(sent.Sub(due)))
				}
				n, err := send(w, i)
				done := time.Now()
				r.tr.add("loadgen.open", 0, int64(i), due, done, n)
				r.op(err)
				sendLate[i] = ms(sent.Sub(due))
				latency[i] = ms(done.Sub(due))
				if err != nil {
					latency[i] = failedLatencyMs
				}
			}
		}(w)
	}
	wg.Wait()
	res := openResult{latency: latency}
	for _, g := range genLate {
		res.genLate = append(res.genLate, g...)
	}
	if q := slots / 4; q > 0 {
		res.backlogGrowthMs = mean(sendLate[slots-q:]) - mean(sendLate[:q])
	}
	return res
}

// failedLatencyMs is the latency charged to a failed request: it misses
// any latency limit.
const failedLatencyMs = 60_000

// minSegment is the fewest samples of one latency segment, so that each
// segment's p99 has at least ten samples beyond it.
const minSegment = 1000

// loadgenLateLimitMs bounds the generator's own lateness (p99 of idle
// wake-ups), above the p99 latency of every workload. Beyond it the
// schedule, not the program, set the latency, and the phase's latency
// figures are marked invalid.
const loadgenLateLimitMs = 20.0

// reportOpen turns an open-loop phase into latency percentiles and the
// generator-health metrics, and marks the percentiles invalid when the
// generator fell behind its schedule. The phase is cut into consecutive
// segments of at least minSegment requests; each percentile is the
// median of the segments' percentiles, so one stall of the shared host
// moves one segment and not the result.
//
// The percentiles are wall-clock times, which on a shared host follow
// the neighbours' load as much as the program's: they are reported, as
// per-layer metrics of the traced run, but carry no bound; a slower
// program shows in cpu_us_per_rec.
func reportOpen(r *run, res openResult) {
	segs := max(1, len(res.latency)/minSegment)
	size := len(res.latency) / segs
	pct := map[float64][]float64{}
	for s := 0; s < segs; s++ {
		seg := append([]float64(nil), res.latency[s*size:(s+1)*size]...)
		for _, q := range []float64{0.50, 0.90, 0.99} {
			pct[q] = append(pct[q], quantile(seg, q))
		}
	}
	p50, p90, p99 := median(pct[0.50]), median(pct[0.90]), median(pct[0.99])
	late := quantile(res.genLate, 0.99)
	r.layer("wall.p50_ms", p50, "ms")
	r.layer("wall.p90_ms", p90, "ms")
	r.layer("wall.p99_ms", p99, "ms")
	r.layer("loadgen.late_p99_ms", late, "ms")
	r.layer("loadgen.backlog_growth_ms", res.backlogGrowthMs, "ms")
	grew := res.backlogGrowthMs > math.Max(1, p50)
	printLine(map[string]any{"open_loop": map[string]any{
		"samples": len(res.latency), "segments": segs, "samples_per_segment": size,
		"p50_ms": p50, "p90_ms": p90, "p99_ms": p99, "p99_whole_phase_ms": quantile(res.latency, 0.99),
		"loadgen_late_p99_ms": late, "backlog_growth_ms": res.backlogGrowthMs, "backlog_grew": grew,
		"valid": late <= loadgenLateLimitMs,
	}})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
