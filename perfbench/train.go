package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"winrs"
)

// layerSpec is one convolution layer of a training workload's model.
type layerSpec struct {
	name  string
	class string // core layer class: dense3, large, dw or grouped
	p     winrs.Params
}

// Every training layer has N=1, set by the step-time budget. p90_ms needs
// 100 steps (ten beyond the 90th percentile) within one run's 20 s, so
// the slowest workload's step must stay near 200 ms. On the reference
// host (a 2-vCPU Xeon shared with other tenants) the train-dense-fp16
// step takes 105–275 ms at N=1, 200–245 ms at N=2 and 360 ms at N=4, so
// only N=1 fits. The planner gives the dense 3×3 layers two segments at
// N=1, 2 and 4 alike, so N=1 is the regime of a small-batch probe; it is
// not that of the N=32 paper-model experiments (cmd/winrs-bench), where
// the same layers plan 3–10 segments and a 4–8× larger workspace.

// denseModel is ResNet-style: a 7×7 stem-like layer, 3×3 layers at
// 56/28/14 with channels doubling, and one 5×5 layer.
var denseModel = []layerSpec{
	{"stem7x7_56", "large", winrs.Params{N: 1, IH: 56, IW: 56, FH: 7, FW: 7, IC: 3, OC: 64, PH: 3, PW: 3}},
	{"conv3x3_56", "dense3", winrs.Params{N: 1, IH: 56, IW: 56, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}},
	{"conv3x3_28", "dense3", winrs.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 128, OC: 128, PH: 1, PW: 1}},
	{"conv3x3_14", "dense3", winrs.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 256, OC: 256, PH: 1, PW: 1}},
	{"conv5x5_28", "large", winrs.Params{N: 1, IH: 28, IW: 28, FH: 5, FW: 5, IC: 64, OC: 64, PH: 2, PW: 2}},
}

// groupedModel is MobileNet-style: depthwise 3×3 layers at 56/28/14, one
// depthwise 5×5 layer and one G=4 grouped 3×3 layer.
var groupedModel = []layerSpec{
	{"dw3x3_56", "dw", winrs.Params{N: 1, IH: 56, IW: 56, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1, Groups: 64}},
	{"dw3x3_28", "dw", winrs.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 128, OC: 128, PH: 1, PW: 1, Groups: 128}},
	{"dw3x3_14", "dw", winrs.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 256, OC: 256, PH: 1, PW: 1, Groups: 256}},
	{"dw5x5_28", "dw", winrs.Params{N: 1, IH: 28, IW: 28, FH: 5, FW: 5, IC: 128, OC: 128, PH: 2, PW: 2, Groups: 128}},
	{"g4conv3x3_28", "grouped", winrs.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 128, OC: 128, PH: 1, PW: 1, Groups: 4}},
}

var (
	trainDenseFP32 = trainWorkload("train-dense-fp32", denseModel, false)
	trainDenseFP16 = trainWorkload("train-dense-fp16", denseModel, true)
	trainGrouped   = trainWorkload("train-grouped", groupedModel, false)
)

func trainWorkload(name string, model []layerSpec, half bool) *workload {
	return &workload{
		name:       name,
		calibrated: true,
		measure: func(cfg runConfig) (*result, error) {
			return measureTrain(cfg, newTrainer(model, half, cfg.seed))
		},
		setup: func(seed int64) (time.Duration, []uint64, error) {
			t := newTrainer(model, half, seed)
			t0 := time.Now()
			dws, err := t.setup(nil)
			d := time.Since(t0)
			if err != nil {
				return 0, nil, err
			}
			return d, hashAll(dws), nil
		},
	}
}

// trainLayer is one layer's operands, plan and checked gradient hash.
type trainLayer struct {
	spec    layerSpec
	x, dy   *winrs.Tensor
	xh, dyh *winrs.HalfTensor // mixed precision: the step converts into these
	plan    *winrs.Plan
	want    uint64
}

// trainer is a closed loop with one caller: one held plan per layer, one
// ∇W per layer per step.
type trainer struct {
	half   bool
	layers []*trainLayer
	// calls and allocs count executions and their heap allocation while
	// traced.
	calls  int
	allocs uint64
}

// newTrainer generates every layer's X and ∇Y, uniform in [0,1), from
// seed.
func newTrainer(model []layerSpec, half bool, seed int64) *trainer {
	rng := rand.New(rand.NewSource(seed))
	t := &trainer{half: half}
	for _, s := range model {
		l := &trainLayer{spec: s, x: winrs.NewTensor(s.p.XShape()), dy: winrs.NewTensor(s.p.DYShape())}
		l.x.FillUniform(rng, 0, 1)
		l.dy.FillUniform(rng, 0, 1)
		if half {
			l.xh, l.dyh = winrs.NewHalfTensor(s.p.XShape()), winrs.NewHalfTensor(s.p.DYShape())
		}
		t.layers = append(t.layers, l)
	}
	return t
}

// setup builds one plan per layer and runs the first step: what setup_s
// times.
func (t *trainer) setup(tr *tracer) ([]*winrs.Tensor, error) {
	var opts []winrs.PlanOption
	if t.half {
		opts = append(opts, winrs.WithFP16())
	}
	for _, l := range t.layers {
		s := tr.start("winrs.new_plan", l.spec.name, 0, 0)
		pl, err := winrs.NewPlan(l.spec.p, opts...)
		s.end()
		if err != nil {
			return nil, fmt.Errorf("plan for %s: %w", l.spec.name, err)
		}
		l.plan = pl
	}
	dws := make([]*winrs.Tensor, len(t.layers))
	t.step(nil, 0, dws)
	return dws, nil
}

// step computes ∇W for every layer into dws and returns its wall time.
// Traced, it records the step as a root span with one span per call into
// fp16 and core.
func (t *trainer) step(tr *tracer, req int64, dws []*winrs.Tensor) time.Duration {
	t0 := time.Now()
	root := tr.start("bench.step", "", 0, req)
	for i, l := range t.layers {
		if t.half {
			s := tr.start("fp16.to_half", l.spec.name, root.id(), req)
			l.x.ToHalfInto(l.xh)
			l.dy.ToHalfInto(l.dyh)
			s.end()
		}
		var a0 uint64
		if tr != nil {
			a0 = allocBytes()
		}
		s := tr.start("core.execute", l.spec.name, root.id(), req)
		if t.half {
			dws[i] = l.plan.ExecuteHalf(l.xh, l.dyh)
		} else {
			dws[i] = l.plan.Execute(l.x, l.dy)
		}
		s.end()
		if tr != nil {
			t.allocs += allocBytes() - a0
			t.calls++
		}
	}
	root.end()
	return time.Since(t0)
}

func hashAll(dws []*winrs.Tensor) []uint64 {
	hs := make([]uint64, len(dws))
	for i, dw := range dws {
		hs[i] = hashF32(dw.Data)
	}
	return hs
}

// accuracySeed generates the fixed operands the accuracy metrics are
// measured on. The MARE of a binary16 Ω16 layer moves by a fifth from one
// operand draw to the next, so measured on the run's own operands
// mare_max would change with the seed rather than with the numerics.
const accuracySeed = 0

// checkFirst verifies the set-up's gradients against the float64 oracle
// (for mixed precision, the oracle of the binary16-rounded operands) and
// remembers their hashes. It checks the plans on the accuracySeed
// operands too. It returns the worst MARE on the accuracySeed operands
// and the worst eq.(7) ratio on either operand set, so a layer that
// exceeds the error model on the run's operands shows in
// core.eq7_ratio_max.
func (t *trainer) checkFirst(dws []*winrs.Tensor, nproc int, res *result) accuracy {
	model := make([]layerSpec, len(t.layers))
	for i, l := range t.layers {
		model[i] = l.spec
	}
	ref := newTrainer(model, t.half, accuracySeed)
	for i, l := range ref.layers {
		l.plan = t.layers[i].plan
	}
	refDWs := make([]*winrs.Tensor, len(ref.layers))
	ref.step(nil, 0, refDWs)

	// Job i < n checks the run's layer i, job n+i the reference layer i.
	n := len(t.layers)
	accs := make([]accuracy, 2*n)
	errs := make([]error, 2*n)
	parallel(2*n, nproc, func(j int) {
		l, dw := t.layers[j%n], dws[j%n]
		if j >= n {
			l, dw = ref.layers[j-n], refDWs[j-n]
		}
		x, dy := l.x, l.dy
		if t.half {
			x, dy = l.xh.ToFloat32(), l.dyh.ToFloat32()
		}
		accs[j], errs[j] = checkOracle(l.spec.name, l.spec.p, t.half, dw, winrs.Reference(l.spec.p, x, dy))
	})
	var worst accuracy
	for j := range accs {
		l := t.layers[j%n]
		input := "run"
		if j >= n {
			input = "reference"
			worst.mare = max(worst.mare, accs[j].mare)
		} else {
			l.want = hashF32(dws[j].Data)
		}
		worst.eq7 = max(worst.eq7, accs[j].eq7)
		note := ""
		if accs[j].eq7 > 1 {
			note = " (above the eq.(7) bound of the differential tests)"
		}
		fmt.Printf("info %s, %s operands: MARE %.3g, max error %.3f of the eq.(7) bound%s\n",
			l.spec.name, input, accs[j].mare, accs[j].eq7, note)
		res.attempted++
		if errs[j] != nil {
			res.fail(errs[j].Error())
		}
	}
	res.setupHashes = hashAll(dws)
	return worst
}

// checkStep compares every gradient of a later step with the first one,
// bit for bit.
func (t *trainer) checkStep(dws []*winrs.Tensor, res *result) {
	for i, l := range t.layers {
		res.attempted++
		if h := hashF32(dws[i].Data); h != l.want {
			res.fail(fmt.Sprintf("%s: ∇W differs from the first execution (hash %016x, want %016x)", l.spec.name, h, l.want))
		}
	}
}

// arm is one way a step can run. loop alternates its arms step by step,
// so host drift during the run falls on every arm alike.
type arm struct {
	tr    *tracer
	procs int         // GOMAXPROCS for the step; 0 leaves it as it is
	cal   *calibrator // non-nil: time the calibration kernel after each step
}

// loop runs checked steps, cycling through arms, until d has passed and
// every arm ran at least minSteps, but no longer than limit. It returns
// each arm's step wall times in ms and, for an arm with a calibrator, the
// kernel time after each step; step i carries request id i.
func (t *trainer) loop(arms []arm, d, limit time.Duration, minSteps int, res *result) (steps, cals [][]float64) {
	dws := make([]*winrs.Tensor, len(t.layers))
	steps, cals = make([][]float64, len(arms)), make([][]float64, len(arms))
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= d && len(steps[len(arms)-1]) >= minSteps) || el >= limit {
			break
		}
		k := i % len(arms)
		prev := 0
		if arms[k].procs > 0 {
			prev = runtime.GOMAXPROCS(arms[k].procs)
		}
		steps[k] = append(steps[k], ms(t.step(arms[k].tr, int64(i+1), dws)))
		if prev > 0 {
			runtime.GOMAXPROCS(prev)
		}
		t.checkStep(dws, res)
		if arms[k].cal != nil {
			cals[k] = append(cals[k], arms[k].cal.run())
		}
	}
	return steps, cals
}

// measureTrain sets the trainer up, checks its first gradients and runs
// the closed loop.
func measureTrain(cfg runConfig, t *trainer) (*result, error) {
	res := newResult()
	pHits, pMisses := winrs.PlanCacheStats()
	t0 := time.Now()
	dws, err := t.setup(cfg.tracer)
	setup := time.Since(t0)
	if err != nil {
		return nil, err
	}
	acc := t.checkFirst(dws, cfg.nproc, res)
	fmt.Printf("info set-up in this process %.3f s\n", setup.Seconds())
	if len(res.mismatches) > 0 {
		return res, nil // the loop would only compare against a wrong gradient
	}

	if cfg.tracer == nil {
		minSteps := minSamples(0.9)
		heap := watchHeap()
		raw, cals := t.loop([]arm{{cal: newCalibrator(cfg.nproc)}}, cfg.seconds, 3*cfg.seconds, minSteps, res)
		res.metrics["heap_live_mib"] = heap.medianMiB()
		res.samples, res.calib = raw[0], cals[0]
		scaled := scaleRolling(raw[0], cals[0])
		if err := res.percentiles(scaled, raw[0]); err != nil {
			return nil, err
		}
		res.metrics["done_per_s"] = float64(len(scaled)) / (sum(scaled) / 1e3)
		res.wall["done_per_s"] = float64(len(raw[0])) / (sum(raw[0]) / 1e3)
		res.metrics["mare_max"] = acc.mare
		res.metrics["workspace_mib"] = float64(t.workspaceBytes()) / (1 << 20)
		return res, nil
	}
	res.metrics["core.eq7_ratio_max"] = acc.eq7
	return res, t.measureLayers(cfg, res, pHits, pMisses)
}

func (t *trainer) workspaceBytes() int64 {
	var b int64
	for _, l := range t.layers {
		b += l.plan.WorkspaceBytes()
	}
	return b
}

// measureLayers is the traced run. For 60% of the time it alternates
// untraced and traced steps, for the per-layer metrics and the tracing
// overhead; for the rest it alternates steps at nproc and at
// GOMAXPROCS=1, for the pool's speed-up.
func (t *trainer) measureLayers(cfg runConfig, res *result, pHits, pMisses uint64) error {
	tr := cfg.tracer
	const minSteps = 5
	d := cfg.seconds * 3 / 5
	both, _ := t.loop([]arm{{}, {tr: tr}}, d, 2*d, minSteps, res)
	untraced, traced := both[0], both[1]
	spans := tr.snapshot()
	nTraced := len(traced)

	wide, single := newTracer(), newTracer()
	d = cfg.seconds - d
	t.loop([]arm{{tr: wide, procs: cfg.nproc}, {tr: single, procs: 1}}, d, 2*d, minSteps, res)

	hits, misses := winrs.PlanCacheStats()
	res.metrics["winrs.plan_cache_hits"] = float64(hits - pHits)
	res.metrics["winrs.plan_cache_misses"] = float64(misses - pMisses)
	var newPlan time.Duration
	for _, s := range spans {
		if s.Name == "winrs.new_plan" {
			newPlan += s.dur()
		}
	}
	res.metrics["winrs.newplan_ms"] = ms(newPlan)

	classOf := make(map[string]string)
	for _, l := range t.layers {
		classOf[l.spec.name] = l.spec.class
	}
	// Per step: busy ms per class, fp16 conversion ms and total exec ms.
	execPerStep := func(spans []span) (byClass map[string][]float64, toHalf, total []float64) {
		byClass = make(map[string][]float64)
		cls := make(map[int64]map[string]float64)
		half := make(map[int64]float64)
		all := make(map[int64]float64)
		for _, s := range spans {
			if s.Req == 0 {
				continue
			}
			switch s.Name {
			case "core.execute":
				if cls[s.Req] == nil {
					cls[s.Req] = make(map[string]float64)
				}
				cls[s.Req][classOf[s.Detail]] += ms(s.dur())
				all[s.Req] += ms(s.dur())
			case "fp16.to_half":
				half[s.Req] += ms(s.dur())
			}
		}
		for req, m := range cls {
			for c, v := range m {
				byClass[c] = append(byClass[c], v)
			}
			toHalf = append(toHalf, half[req])
			total = append(total, all[req])
		}
		return byClass, toHalf, total
	}
	byClass, toHalf, _ := execPerStep(spans)
	_, _, execN := execPerStep(wide.snapshot())
	_, _, exec1 := execPerStep(single.snapshot())

	flops := make(map[string]float64)
	bytes := make(map[string]float64)
	var ws, what int64
	for _, l := range t.layers {
		p := l.spec.p
		flops[l.spec.class] += float64(p.FLOPs())
		operands := p.DataBytes32()
		if t.half {
			operands = p.DataBytes16() + 2*int64(p.DWShape().Elems()) // ∇W stays FP32
		}
		bytes[l.spec.class] += float64(operands + l.plan.WorkspaceBytes() + l.plan.WHatCacheBytes())
		ws += l.plan.WorkspaceBytes()
		what += l.plan.WHatCacheBytes()
	}
	for _, c := range classes {
		if v, ok := byClass[c]; ok {
			m := median(v)
			res.metrics["core.exec_ms."+c] = m
			res.metrics["core.gflops."+c] = flops[c] / (m * 1e6)
			res.metrics["core.ops_per_byte."+c] = flops[c] / bytes[c]
		}
	}
	res.metrics["core.workspace_bytes"] = float64(ws)
	res.metrics["core.what_cache_bytes"] = float64(what)
	res.metrics["core.alloc_bytes_per_call"] = perOp(float64(t.allocs), t.calls)
	res.metrics["sched.speedup"] = median(exec1) / median(execN)
	if t.half {
		res.metrics["fp16.to_half_ms"] = median(toHalf)
	}
	res.metrics["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	fillSelfTimes(res, spans, nTraced)
	return nil
}
