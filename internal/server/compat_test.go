package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"finser"
	"finser/internal/dist"
	"finser/internal/journal"
)

// TestJobSpecWireCompat decodes a job-request body and a journal
// admission record byte for byte as an earlier serd wrote them, and pins
// the flow and shard fingerprints that request maps to. A change to the
// request's JSON names, to its mapping onto the flow config or to the
// shard wire spec breaks journal replay, idempotent dedupe and shard
// merges across versions, and fails here.
func TestJobSpecWireCompat(t *testing.T) {
	const (
		body = `{"vdd":0.8,"samples":10,"iters_per_bin":1000,"alpha_bins":4,"proton_bins":4,"pattern":"checkerboard","seed":3,"workers":2,"fit_rel_err":0.05,"timeout_seconds":30,"class":"interactive"}`
		rec  = `{"kind":"submitted","job":"job-7","t_ms":1700000000000,"request":{"vdd":0.8,"samples":10,"iters_per_bin":1000,"alpha_bins":4,"proton_bins":4,"pattern":"checkerboard","seed":3,"fit_rel_err":0.05,"timeout_seconds":30,"class":"interactive"},"fingerprint":"fp","idempotency_key":"k1","tenant":"acme","class":"interactive"}`
		wire = `{"job":{"vdd":0.8,"samples":10,"iters_per_bin":1000,"fit_rel_err":0.05,"alpha_bins":4,"proton_bins":4,"pattern":"checkerboard","seed":3,"workers":2},"shard":{"species":"alpha","start":1,"end":3},"seeds":[14394030774425773221,3641757530405118053],"fingerprint":"344b8d1bb0598da9c124723c7563981246c4ff4952b45c8d14e4709f84c4c9f6"}`

		flowFP  = "899a621aa7fa6d0a3fd472bfd04e16256af6169cec8c6fa5d1c34935be7f5789"
		shardFP = "344b8d1bb0598da9c124723c7563981246c4ff4952b45c8d14e4709f84c4c9f6"
	)
	want := JobRequest{
		Vdd: 0.8, Samples: 10, ItersPerBin: 1000, AlphaBins: 4, ProtonBins: 4,
		Pattern: "checkerboard", Seed: 3, FitRelErr: 0.05, TimeoutSeconds: 30, Class: "interactive",
	}

	// The journal record replays into the same request and re-encodes to
	// the same bytes.
	var r journal.Record
	if err := json.Unmarshal([]byte(rec), &r); err != nil {
		t.Fatal(err)
	}
	var replayed JobRequest
	if err := json.Unmarshal(r.Request, &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed != want {
		t.Fatalf("journal request decoded to %+v, want %+v", replayed, want)
	}
	if got, _ := json.Marshal(replayed); !bytes.Equal(got, r.Request) {
		t.Errorf("journal request re-encodes to %s, want %s", got, r.Request)
	}

	// The submit body decodes strictly, as handleSubmit does.
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader([]byte(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	want.Workers = 2
	if req != want {
		t.Fatalf("body decoded to %+v, want %+v", req, want)
	}
	cfg, err := req.flowConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := finser.FlowFingerprint(cfg, []float64{cfg.Vdd}); err != nil || got != flowFP {
		t.Errorf("flow fingerprint %s (%v), want %s", got, err, flowFP)
	}

	// The shard request the coordinator builds from it is unchanged on the
	// wire and under its fingerprint.
	spec, err := dist.SpecFromFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := finser.SpeciesSeedSchedule(cfg, finser.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	id := dist.ShardID{Species: dist.SpeciesAlpha, Start: 1, End: 3}
	fp, err := dist.ShardFingerprint(spec, id, seeds[1:3])
	if err != nil || fp != shardFP {
		t.Errorf("shard fingerprint %s (%v), want %s", fp, err, shardFP)
	}
	got, _ := json.Marshal(dist.ShardRequest{Job: spec, Shard: id, Seeds: seeds[1:3], Fingerprint: fp})
	if string(got) != wire {
		t.Errorf("shard request encodes to\n%s\nwant\n%s", got, wire)
	}
	if _, err := dist.DecodeShardRequest([]byte(wire)); err != nil {
		t.Errorf("recorded shard request rejected: %v", err)
	}
}
