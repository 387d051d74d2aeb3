package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ghsom"
)

// datasets is how many KDD99-like training sets one run trains on, one
// per set-up. GHSOM growth is sensitive to its data: from one seed to the
// next the trained hierarchy differs in size, and training time with it,
// by up to a fifth. The training and set-up figures therefore take the
// mean or median over datasets sets, each generated from its own
// sub-seed, so that one unusual set does not set a run's figure.
const datasets = 8

// trainSeed is the sub-seed of training set j of the run with the given
// seed, and heldSeed the sub-seed of the held-out traffic the trained
// models classify. No sub-seed repeats within a run or across runs.
func trainSeed(seed int64, j int) int64 { return (datasets+1)*seed + int64(j) }

func heldSeed(seed int64) int64 { return (datasets+1)*seed + datasets }

// generate runs the traffic generator on one scenario.
func generate(cfg ghsom.GeneratorConfig) ([]ghsom.Record, error) {
	recs, err := ghsom.GenerateTraffic(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate traffic (seed %d): %w", cfg.Seed, err)
	}
	return recs, nil
}

// heldFrame rounds the held-out traffic down to whole 1024-record frames,
// so every workload classifies the same records and their verdict
// fingerprints agree.
const heldFrame = 1024

// heldOut generates the run's held-out traffic.
func heldOut(seed int64) ([]ghsom.Record, error) {
	recs, err := generate(ghsom.KDD99Scenario(heldSeed(seed)))
	if err != nil {
		return nil, err
	}
	return recs[:len(recs)/heldFrame*heldFrame], nil
}

// fingerprint digests verdict streams, so runs and commits on one seed
// can be seen to classify alike.
func fingerprint(verdicts ...[]byte) string {
	h := sha256.New()
	for _, v := range verdicts {
		h.Write(v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
