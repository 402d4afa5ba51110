package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/compress"
	"repro/internal/events"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// layerMetric is one per-layer metric, in report order. Which end-to-end
// metric each is predicted to move is recorded in perfbench/metrics.json.
type layerMetric struct {
	name, unit string
}

// convProbeNames lists the conv positions of each conv model, in network
// order; the tensor probes run at each position's exact shape.
var convProbeNames = map[string][]string{
	"vgg":    {"conv1", "conv2"},
	"resnet": {"stem", "b1c1", "b1c2", "b2c1", "b2c2"},
}

var convKernels = []string{"gemmtb", "gemmta", "gemm", "im2col", "col2im"}

func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"experiments.build_workload_s", "s"},
		{"cluster.new_s", "s"},
		{"nn.conv2d.fwd_s", "s"},
		{"nn.conv2d.bwd_s", "s"},
		{"nn.relu.fwd_s", "s"},
		{"nn.relu.bwd_s", "s"},
		{"nn.maxpool.fwd_s", "s"},
		{"nn.maxpool.bwd_s", "s"},
		{"nn.residual.self_s", "s"},
		{"nn.train_steps", "count"},
		{"nn.dense.fwd_s", "s"},
		{"nn.dense.bwd_s", "s"},
		{"nn.loss.grad_s", "s"},
		{"nn.eval.fwd_s", "s"},
		{"core.next_round_s", "s"},
		{"core.loss_check_s", "s"},
		{"core.loss_checks", "count"},
		{"cluster.rounds", "count"},
		{"cluster.round_self_s", "s"},
		{"cluster.run_self_s", "s"},
		{"cluster.async.updates", "count"},
		{"cluster.async.self_s", "s"},
		{"cluster.async.allocs_per_update", "count"},
		{"cluster.async.mean_staleness", "versions"},
		{"cluster.async.peak_inflight", "count"},
	}
	for _, model := range []string{"vgg", "resnet"} {
		for _, conv := range convProbeNames[model] {
			for _, k := range convKernels {
				ms = append(ms, layerMetric{fmt.Sprintf("tensor.%s.%s.%s_us", k, model, conv), "us"})
			}
		}
		ms = append(ms,
			layerMetric{"tensor.gemm.nozero_row_share." + model, "frac"},
			layerMetric{"tensor.conv_gflop." + model, "GFLOP"})
	}
	return append(ms,
		layerMetric{"compress.topk.compress_us", "us"},
		layerMetric{"compress.topk_f32.compress_us", "us"},
		layerMetric{"graph.subgraph_us", "us"},
		layerMetric{"events.pushpop_us", "us"},
		layerMetric{"bench.trace_overhead_frac", "frac"},
		layerMetric{"bench.self_sum_frac", "frac"},
		layerMetric{"bench.traced_wall_s", "s"},
	)
}

// runTraced runs the repository's own experiment code for the workload
// (figure workloads), one untraced repetition that times the workload, one
// untraced CPU-profiled repetition and one traced repetition; checks that
// all of them produce identical per-arm traces; and reports per-layer
// metrics, span files, and the profile's top functions under dir. A layer
// or probe the workload does not exercise reports 0.
func runTraced(wl *workload, seed uint64, dir string) result {
	var c checker
	origin := time.Now()
	var want map[string]uint64
	if wl.reference != nil {
		want = map[string]uint64{}
		for name, tr := range wl.reference(seed) {
			want[name] = digest(tr)
		}
	}

	u, runners := setupRep(wl, seed, false, origin)
	u.run(runners)
	untraced := c.checkRep(wl, u, want, "untraced vs reference")

	prof, runners := setupRep(wl, seed, false, origin)
	profPath := filepath.Join(dir, "cpu.pprof")
	stopProfile := startProfile(profPath)
	prof.run(runners)
	stopProfile()
	c.checkRep(wl, prof, untraced, "profiled vs untraced")

	tr, runners := setupRep(wl, seed, true, origin)
	tr.run(runners)
	c.checkRep(wl, tr, untraced, "traced vs untraced")

	m := map[string]metric{}
	for _, lm := range layerMetrics() {
		m[lm.name] = metric{0, lm.unit}
	}
	set := func(name string, v float64) {
		mm, ok := m[name]
		if !ok {
			panic("perfbench: unregistered per-layer metric " + name)
		}
		mm.Value = v
		m[name] = mm
	}

	set("experiments.build_workload_s", u.build)
	set("cluster.new_s", u.engines)

	var lt layerTotals
	for _, t := range tr.tracers {
		lt.add(t)
	}
	for k, name := range map[int]string{
		kConvFwd: "nn.conv2d.fwd_s", kConvBwd: "nn.conv2d.bwd_s",
		kReLUFwd: "nn.relu.fwd_s", kReLUBwd: "nn.relu.bwd_s",
		kPoolFwd: "nn.maxpool.fwd_s", kPoolBwd: "nn.maxpool.bwd_s",
		kResidual: "nn.residual.self_s",
		kDenseFwd: "nn.dense.fwd_s", kDenseBwd: "nn.dense.bwd_s",
		kLossGrad: "nn.loss.grad_s", kEvalFwd: "nn.eval.fwd_s",
		kNextRound: "core.next_round_s", kLossCheck: "core.loss_check_s",
		kRound: "cluster.round_self_s", kArm: "cluster.run_self_s",
		kAsyncRun: "cluster.async.self_s",
	} {
		set(name, lt.self[k])
	}
	set("nn.train_steps", float64(lt.count[kLossGrad]))
	set("core.loss_checks", float64(lt.count[kLossCheck]))
	set("cluster.rounds", float64(lt.count[kRound]))

	// Self times are spans minus their children, so they must be
	// non-negative, and the root spans cover every engine run: their sum
	// must match the traced wall time to within the tracer's own overhead,
	// with a 2% floor for the final-model scoring between engine runs.
	var selfSum float64
	for k, s := range lt.self {
		if s < 0 {
			c.fail("negative self time %.3g s for %s", s, kindNames[k])
		}
		selfSum += s
	}
	overhead, selfFrac := tr.wall/u.wall-1, selfSum/tr.wall
	if math.Abs(selfFrac-1) > math.Max(math.Abs(overhead), 0.02) {
		c.fail("span self times sum to %.4f of traced wall_s, beyond the trace overhead %.4f", selfFrac, overhead)
	}
	set("bench.trace_overhead_frac", overhead)
	set("bench.self_sum_frac", selfFrac)
	set("bench.traced_wall_s", tr.wall)

	if st := u.arms[0].stats; st != nil {
		updates := 0
		for _, a := range u.arms {
			updates += a.stats.Updates
		}
		set("cluster.async.updates", float64(updates))
		set("cluster.async.allocs_per_update", float64(u.mallocs)/float64(updates))
		set("cluster.async.mean_staleness", st.MeanStaleness)
		set("cluster.async.peak_inflight", float64(st.PeakInFlight))
		set("events.pushpop_us", probeEvents(seed, st.PeakInFlight))
	}

	if convs := tr.tracers[0].convs; len(convs) > 0 {
		var rows, noZero int
		var gflop float64
		for _, t := range tr.tracers {
			for _, cr := range t.convs {
				gflop += (float64(cr.fwdRows+cr.evalRows) + 2*float64(cr.bwdRows)) * cr.flopsPerRow() / 1e9
			}
		}
		for _, cr := range convs {
			if cr.in == nil || cr.dOut == nil {
				c.fail("conv %s captured no operands", cr.name)
				continue
			}
			times, r, nz := probeConv(cr)
			rows += r
			noZero += nz
			for k, us := range times {
				set(fmt.Sprintf("tensor.%s.%s.%s_us", k, wl.model, cr.name), us)
			}
		}
		set("tensor.gemm.nozero_row_share."+wl.model, float64(noZero)/float64(rows))
		set("tensor.conv_gflop."+wl.model, gflop)
	}

	if compresses(tr.p) {
		delta := tr.arms[0].delta
		for name, spec := range map[string]compress.Spec{
			"compress.topk.compress_us":     {Kind: compress.KindTopK, Ratio: 0.25},
			"compress.topk_f32.compress_us": {Kind: compress.KindTopK, Ratio: 0.25, Wire: compress.WireFloat32},
		} {
			set(name, probeCompress(spec, delta, seed))
		}
	}
	if p := tr.p; p.graph != "" {
		set("graph.subgraph_us", probeSubgraph(p, tr.arms[0].clock.rounds))
	}

	if err := writeSpanFile(filepath.Join(dir, "spans.csv"), tr.tracers); err != nil {
		c.fail("writing spans: %v", err)
	}
	profileTop(profPath, filepath.Join(dir, "profile_top.txt"))
	return result{Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// compresses reports whether any arm compresses its exchange.
func compresses(p *prepared) bool {
	for _, a := range p.arms {
		if a.cfg.Compress.Enabled() || (a.async != nil && a.async.Compress.Enabled()) {
			return true
		}
	}
	return false
}

// perCallUs times fn in rounds of n calls, n doubled until a round takes
// at least 2 ms, and returns the median microseconds per call of 7 rounds.
// fn receives the call index so probes can cycle through their operands.
func perCallUs(fn func(i int)) float64 {
	round := func(n int) time.Duration {
		s := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return time.Since(s)
	}
	n := 1
	for round(n) < 2*time.Millisecond {
		n *= 2
	}
	v := make([]float64, 7)
	for r := range v {
		v[r] = float64(round(n).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(v)
}

// probeConv times the five kernels one conv calls per sample, at the
// conv's exact shape, on the operands captured mid-run: the lowered input
// patches, the parameters, and the ReLU-masked output gradient. It also
// counts the backward Gemm's A rows (dProd, P x F per sample) without an
// exact zero — the rows the SSE kernel accepts.
func probeConv(cr *convRecord) (us map[string]float64, rows, noZero int) {
	s, f := cr.shape, cr.filters
	p, pl := s.OutHeight()*s.OutWidth(), s.PatchLen()
	n := cr.in.Rows
	w := &tensor.Matrix{Rows: f, Cols: pl, Data: cr.params[:f*pl]}
	lowered := make([]*tensor.Matrix, n)
	dProd := make([]*tensor.Matrix, n)
	dPatches := make([]*tensor.Matrix, n)
	for i := 0; i < n; i++ {
		lowered[i] = tensor.NewMatrix(p, pl)
		tensor.Im2Col(s, cr.in.Row(i), lowered[i])
		dProd[i] = tensor.NewMatrix(p, f)
		src := cr.dOut.Row(i)
		for pos := 0; pos < p; pos++ {
			row := dProd[i].Row(pos)
			zero := false
			for k := 0; k < f; k++ {
				row[k] = src[k*p+pos]
				zero = zero || row[k] == 0
			}
			rows++
			if !zero {
				noZero++
			}
		}
		dPatches[i] = tensor.NewMatrix(p, pl)
		tensor.Gemm(1, dProd[i], w, 0, dPatches[i])
	}
	scratch := tensor.NewMatrix(p, pl)
	prod := tensor.NewMatrix(p, f)
	dW := tensor.NewMatrix(f, pl)
	dPatch := tensor.NewMatrix(p, pl)
	img := make([]float64, s.Channels*s.Height*s.Width)
	us = map[string]float64{
		"im2col": perCallUs(func(i int) { tensor.Im2Col(s, cr.in.Row(i%n), scratch) }),
		"gemmtb": perCallUs(func(i int) { tensor.GemmTB(1, lowered[i%n], w, 0, prod) }),
		"gemmta": perCallUs(func(i int) { tensor.GemmTA(1, dProd[i%n], lowered[i%n], 1, dW) }),
		"gemm":   perCallUs(func(i int) { tensor.Gemm(1, dProd[i%n], w, 0, dPatch) }),
		"col2im": perCallUs(func(i int) {
			if i%n == 0 {
				clear(img) // Col2Im scatter-adds
			}
			tensor.Col2Im(s, dPatches[i%n], img)
		}),
	}
	return us, rows, noZero
}

// probeCompress times one compression of a real parameter delta.
func probeCompress(spec compress.Spec, delta []float64, seed uint64) float64 {
	c, err := spec.New(rng.New(seed))
	if err != nil {
		panic(err)
	}
	return perCallUs(func(int) {
		if _, err := c.Compress(delta); err != nil {
			panic(err)
		}
	})
}

// probeSubgraph times Graph.Subgraph over every distinct active set the
// fault schedule produces during the run's rounds.
func probeSubgraph(p *prepared, rounds int) float64 {
	spec, err := graph.ParseSpec(p.graph)
	if err != nil {
		panic(err)
	}
	m := p.arms[0].w.M
	seq, err := spec.Build(m)
	if err != nil {
		panic(err)
	}
	g := seq.At(0)
	seen := map[string]bool{}
	var sets [][]bool
	for r := 0; r < rounds; r++ {
		active := make([]bool, m)
		p.faults.ActiveInto(r, active)
		if key := fmt.Sprint(active); !seen[key] {
			seen[key] = true
			sets = append(sets, active)
		}
	}
	return perCallUs(func(i int) { g.Subgraph(sets[i%len(sets)]) })
}

// probeEvents times one pop plus one push on a queue holding the async
// run's peak in-flight event count.
func probeEvents(seed uint64, volume int) float64 {
	q := events.NewQueue(seed)
	r := rng.New(seed)
	for i := 0; i < volume; i++ {
		q.Push(events.Event{Time: r.Float64(), Worker: i, Kind: events.Arrival})
	}
	return perCallUs(func(int) {
		e, _ := q.Pop()
		e.Time += r.Float64()
		q.Push(e)
	})
}

func startProfile(path string) (stop func()) {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no CPU profile:", err)
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: CPU profile:", err)
		}
	}
}

// profileTop writes the CPU profile's top functions (flat and cumulative
// shares) next to the per-layer numbers, via the Go toolchain's pprof.
func profileTop(prof, out string) {
	exe, err := os.Executable()
	if err != nil {
		return
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=25", exe, prof)
	text, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pprof -top:", err)
		return
	}
	if err := os.WriteFile(out, text, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	lines := strings.Split(string(text), "\n")
	fmt.Fprintf(os.Stderr, "perfbench: CPU profile top (%s):\n", out)
	for _, l := range lines[:min(len(lines), 20)] {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
}
