package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ghsom"
)

// meanOfMedians is a training figure: the mean over the datasets of each
// dataset's median CPU time per training.
func meanOfMedians(ts []*trainer) float64 {
	var meds []float64
	for _, t := range ts {
		meds = append(meds, median(append([]float64(nil), t.cpu...)))
	}
	return mean(meds)
}

// onlineConfig is the production pipeline with the paper's online
// training rule in place of the default batch rule.
func onlineConfig() ghsom.PipelineConfig {
	cfg := ghsom.DefaultPipelineConfig()
	cfg.Model.Batch = false
	return cfg
}

// trainer times repeated trainings of one rule on one record set and
// checks that every training saves to the same envelope bytes. It keeps
// each training's CPU time, which, unlike its wall time, does not follow
// the load of a shared host's other tenants.
type trainer struct {
	name     string
	records  []ghsom.Record
	cfg      ghsom.PipelineConfig
	cpu      []float64
	envelope []byte
}

func (t *trainer) once(r *run) error {
	cpu0, start := processCPU(), time.Now()
	pipe, err := ghsom.TrainPipeline(t.records, t.cfg)
	end, cpu1 := time.Now(), processCPU()
	r.tr.add("train."+t.name, 0, int64(len(t.cpu)), start, end, len(t.records))
	r.op(err)
	if err != nil {
		return fmt.Errorf("train %s: %w", t.name, err)
	}
	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		return fmt.Errorf("save %s model: %w", t.name, err)
	}
	if t.envelope == nil {
		t.envelope = env.Bytes()
	} else if !bytes.Equal(env.Bytes(), t.envelope) {
		r.wrong("%s rule: two trainings of one seed gave different envelopes", t.name)
	}
	t.cpu = append(t.cpu, cpu1-cpu0)
	return nil
}

// settle collects the garbage of set-up and training and returns it to
// the OS before a timed load phase, so the phase does not pay for it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
