package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// The load runs in a child process of this binary, so the generator's
// goroutines never wait for a scheduler slot behind the replica's:
// otherwise the generator's own lateness would show up as the program's
// latency.

// loadPlan is what the load-generator process is told to do.
type loadPlan struct {
	Workload    string
	Seed        int64
	Trace       bool
	URL         string
	ContentType string
	Rate        float64
	Window      time.Duration
	Bodies      [][]byte
	Counts      []int
	Want        [][]byte
}

// loadReport is the load-generator process's last output line.
type loadReport struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"layers"`
}

// tick is the line the load generator prints at each closed-loop slice
// boundary: the records classified so far in the closed loop.
type tick struct {
	Records int64 `json:"tick_records"`
}

// spawnLoadgen runs the plan in a child process, waits for it, echoes
// its report lines and merges its counts and metrics into r. At each of
// the child's closed-loop ticks it reads this process's CPU time, and it
// reports cpu_us_per_rec: the median over the closed loop's slices of
// the CPU time the serving process spent per record classified.
func spawnLoadgen(r *run, plan loadPlan) error {
	path := filepath.Join(r.workDir, "plan.gob")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("load plan: %w", err)
	}
	err = gob.NewEncoder(f).Encode(&plan)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("load plan: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	cmd := exec.Command(exe, "--loadgen", path)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	var cpu, records []float64
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var t tick
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"tick_records":`)) && json.Unmarshal(sc.Bytes(), &t) == nil {
			cpu = append(cpu, processCPU())
			records = append(records, float64(t.Records))
			continue
		}
		if last != nil {
			fmt.Println(string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	if scanErr != nil {
		return fmt.Errorf("load generator output: %w", scanErr)
	}
	var rep loadReport
	if err := json.Unmarshal(last, &rep); err != nil {
		return fmt.Errorf("load generator report: %w", err)
	}
	r.attempted.Add(rep.Attempted)
	r.failed.Add(rep.Failed)
	for _, p := range rep.Problems {
		r.wrong("%s", p)
	}
	for k, m := range rep.EndToEnd {
		r.endToEnd(k, m.Value, m.Unit)
	}
	for k, m := range rep.Layers {
		r.layer(k, m.Value, m.Unit)
	}
	var perRec []float64
	for s := 1; s < len(cpu); s++ {
		if n := records[s] - records[s-1]; n > 0 {
			perRec = append(perRec, (cpu[s]-cpu[s-1])/n*1e6)
		}
	}
	if len(perRec) == 0 {
		return errors.New("load generator: no closed-loop slice classified a record")
	}
	printLine(map[string]any{"closed_loop_cpu": map[string]any{"slices": len(perRec), "us_per_rec": perRec}})
	r.endToEnd("cpu_us_per_rec", median(perRec), "us")
	return nil
}

// runLoadgen is the child process: a warm-up, the closed-loop phase and
// the open-loop phase against plan.URL.
func runLoadgen(planPath string) error {
	f, err := os.Open(planPath)
	if err != nil {
		return err
	}
	var plan loadPlan
	err = gob.NewDecoder(bufio.NewReader(f)).Decode(&plan)
	f.Close()
	if err != nil {
		return fmt.Errorf("load plan: %w", err)
	}
	r := &run{workload: plan.Workload, seed: plan.Seed, window: plan.Window, e2e: map[string]metric{}, layers: map[string]metric{}}
	if plan.Trace {
		r.tr = newTracer()
	}
	reqs := &requests{contentType: plan.ContentType, bodies: plan.Bodies, counts: plan.Counts, want: plan.Want}
	p := newPoster(r, reqs, plan.URL)
	defer p.client.CloseIdleConnections()
	// Warm-up fills pools, connections and caches before timing; its
	// requests are checked and counted like any other.
	closedLoop(r, warmup, nproc(), "loadgen.warmup", p.send, nil)
	closed := time.Duration(float64(r.window) * closedShare)
	tput := closedLoop(r, closed, nproc(), "loadgen.closed", p.send, func(n int64) {
		printLine(tick{Records: n})
	})
	r.layer("wall.throughput_rec_s", tput, "rec/s")
	printLine(map[string]any{"closed_loop": map[string]any{"connections": nproc(), "throughput_rec_s": tput}})
	reportOpen(r, openLoop(r, r.window-closed, plan.Rate, nproc(), p.send))
	if r.tr != nil {
		if err := r.tr.write(fmt.Sprintf(".bench_build/spans/%s-seed%d-loadgen.jsonl", r.workload, r.seed)); err != nil {
			return err
		}
	}
	printLine(loadReport{
		Attempted: r.attempted.Load(), Failed: r.failed.Load(), Problems: r.problems,
		EndToEnd: r.e2e, Layers: r.layers,
	})
	return nil
}
