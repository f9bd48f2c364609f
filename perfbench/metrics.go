package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric of the benchmark's contract as BENCHMARK.json
// states it, with what it means here.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Means says what the metric is, from meaning below.
	Means string `json:"means,omitempty"`
}

// catalogue is the part of BENCHMARK.json the program reads: which
// metrics each mode reports, with their units.
type catalogue struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalogue reads the metric lists from the BENCHMARK.json at path and
// attaches each metric's meaning.
func loadCatalogue(path string) (*catalogue, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, defs := range [][]metricDef{c.EndToEnd, c.PerLayer} {
		for i := range defs {
			defs[i].Means = meaning[defs[i].Name]
		}
	}
	return &c, nil
}

// meaning says, for each end-to-end metric, what it is on each workload
// and, for each per-layer metric, which end-to-end metric and workload it
// should move. It is written to every result file. serve-mix runs only by
// hand (see serveMix); on the train-* workloads its layers are idle and
// their metrics read 0.
var meaning = map[string]string{
	"p50_ms":        "median step time scaled by the calibration kernel to the reference host's speed (train-*; also called step_ms_p50), or median phase A request wall latency from its due time (serve-mix; req_p50_ms)",
	"p90_ms":        "90th percentile of the same samples (step_ms_p90 / req_p90_ms); failed requests count as missing the limit",
	"done_per_s":    "steps per second of scaled step time (train-*) or phase B completed requests per second of wall time (serve-mix; served_rps)",
	"setup_s":       "median over fresh processes of the time from workload start to the first checked gradients (plans, workspaces, pool, first execution; for serve-mix node and router start-up and cache warm-up), scaled by the calibration kernel on train-*",
	"workspace_mib": "sum of Plan.WorkspaceBytes over the workload's plans",
	"heap_live_mib": "median over the timed phase's garbage collections of the live heap each found (in place of a sampled high-water mark, heap_peak_mib)",
	"mare_max":      "largest MARE against the float64 oracle over the workload's layers, on fixed reference operands (serve-mix: its winrs-algo keys on the run's operands)",

	"winrs.newplan_ms":            "moves setup_s on train-*",
	"winrs.plan_cache_hits":       "moves setup_s on train-*",
	"winrs.plan_cache_misses":     "moves setup_s on train-*",
	"core.exec_ms.dense3":         "moves p50_ms on train-dense-fp32 and train-dense-fp16",
	"core.exec_ms.large":          "moves p50_ms on train-dense-fp32 and train-dense-fp16",
	"core.exec_ms.dw":             "moves p50_ms on train-grouped",
	"core.exec_ms.grouped":        "moves p50_ms on train-grouped",
	"core.gflops.dense3":          "moves p50_ms on train-dense-*",
	"core.gflops.large":           "moves p50_ms on train-dense-*",
	"core.gflops.dw":              "moves p50_ms on train-grouped",
	"core.gflops.grouped":         "moves p50_ms on train-grouped",
	"core.ops_per_byte.dense3":    "computed, not measured: moves only when a plan changes",
	"core.ops_per_byte.large":     "computed, not measured: moves only when a plan changes",
	"core.ops_per_byte.dw":        "computed, not measured: moves only when a plan changes",
	"core.ops_per_byte.grouped":   "computed, not measured: moves only when a plan changes",
	"core.workspace_bytes":        "moves workspace_mib on every workload",
	"core.what_cache_bytes":       "moves heap_live_mib on train-*",
	"core.alloc_bytes_per_call":   "moves p90_ms on train-* (garbage collection)",
	"core.eq7_ratio_max":          "largest max error over the eq.(7) bound, on the run's and the reference operands; above 1 the error model of the differential tests does not hold; moves mare_max",
	"sched.speedup":               "moves p50_ms on train-* (largest on train-grouped)",
	"fp16.to_half_ms":             "moves p50_ms on train-dense-fp16",
	"backend.dispatch_ms":         "moves setup_s and p90_ms on serve-mix",
	"backend.chosen.winrs":        "moves p90_ms on serve-mix",
	"backend.chosen.gemm":         "moves p90_ms on serve-mix",
	"backend.chosen.direct":       "moves p90_ms on serve-mix",
	"backend.chosen.fft":          "moves p90_ms on serve-mix",
	"backend.chosen.winnf":        "moves p90_ms on serve-mix",
	"backend.pred_over_meas":      "moves setup_s and p90_ms on serve-mix (1 is a perfect prediction)",
	"serve.handler_ms_p50":        "moves p50_ms on serve-mix",
	"serve.pre_compute_ms_p50":    "moves p50_ms on serve-mix",
	"serve.compute_encode_ms_p50": "moves p50_ms on serve-mix",
	"serve.rejected":              "moves the failed count on serve-mix",
	"serve.deadline":              "moves the failed count on serve-mix",
	"serve.batch_occupancy_mean":  "moves done_per_s on serve-mix",
	"serve.batched_frac":          "moves done_per_s on serve-mix",
	"serve.plan_cache_hit_ratio":  "moves p90_ms on serve-mix",
	"router.forward_ms_p50":       "moves p50_ms on serve-mix",
	"router.forward_errors":       "moves the failed count on serve-mix",
	"loadgen.late_ms_p90":         "validates phase A: a late generator understates p90_ms",
	"loadgen.sent":                "validates phase A",
	"loadgen.ok":                  "validates phase A",
	"loadgen.failed":              "validates phase A",
	"trace.overhead_frac":         "traced p50 over untraced p50, minus 1",
	"self_ms.bench":               "benchmark time inside a step or request outside every layer call",
	"self_ms.winrs":               "moves setup_s",
	"self_ms.core":                "moves p50_ms on train-*",
	"self_ms.fp16":                "moves p50_ms on train-dense-fp16",
	"self_ms.loadgen":             "moves p50_ms on serve-mix (generator queueing and lateness)",
	"self_ms.router":              "moves p50_ms on serve-mix",
	"self_ms.serve":               "moves p50_ms on serve-mix",
}

// classes are the core layer classes the per-layer view splits by.
var classes = []string{"dense3", "large", "dw", "grouped"}

// backendNames are the registered backends, in registry order.
var backendNames = []string{"winrs", "gemm", "direct", "fft", "winnf"}

// selfLayers are the layers whose self time is reported.
var selfLayers = []string{"bench", "winrs", "core", "fp16", "loadgen", "router", "serve"}
