// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator only through its public package APIs (experiments, cluster,
// core, nn, tensor, compress, graph, events) and measures it from outside:
// real time, memory and the simulated error-runtime result of each
// workload, with an output check on every engine run.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload vgg-fig9 --seed 7 --seconds 20 --trace 0
//	perfbench --workload all          # every workload, default seeds
//
// --trace 0 prints the end-to-end metrics. --trace 1 instead runs the
// workload untraced twice (once timed, once CPU-profiled) and once with span
// recorders around every layer call, checks that all of them (and, for the
// figure workloads, experiments.RunComparison) produce identical traces,
// and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
// BENCHMARK.json at the repository root lists every metric's name, unit and
// regression bound; perfbench/metrics.json records each workload's default
// seed, why, headline arm and target loss, and the end-to-end metric each
// per-layer metric is predicted to move. The benchmark is a module of its
// own, so the repository's `go build ./...` and `go test ./...` do not
// include it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minSetups is how many times a run sets its workload up; setup_s is the
// median.
const minSetups = 11

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 0, "input seed (0 = the workload's default seed)")
	seconds := flag.Float64("seconds", 20, "measurement time in real seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for spans, profiles and reports")
	flag.Parse()

	selected := workloads
	if *name != "all" {
		selected = nil
		if wl := findWorkload(*name); wl != nil {
			selected = []*workload{wl}
		}
	}
	if len(selected) == 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d (workloads: all", *name, *trace)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}

	// With --workload all, every workload runs in this process and the
	// JSON line prefixes each metric with its workload name.
	total := result{Metrics: map[string]metric{}}
	for _, wl := range selected {
		s := *seed
		if s == 0 {
			s = wl.defaultSeed
		}
		res := runWorkload(wl, s, *seconds, *trace, *out)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, v := range res.Metrics {
			if len(selected) > 1 {
				n = wl.name + "/" + n
			}
			total.Metrics[n] = v
		}
	}
	total.Correct = total.Failed == 0
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload and prints its metrics by name with units.
func runWorkload(wl *workload, seed uint64, seconds float64, trace int, out string) result {
	resetPeakRSS()
	var res result
	if trace == 0 {
		res = runEndToEnd(wl, seed, seconds)
	} else {
		dir := filepath.Join(out, wl.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res = runTraced(wl, seed, dir)
	}
	for n, v := range res.Metrics {
		if !finite(v.Value) {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: metric %s is %v; reported as 0\n", n, v.Value)
			res.Failed++
			res.Metrics[n] = metric{0, v.Unit}
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %d: %d engine runs, %d failed (failed_frac %.3g)\n",
		wl.name, seed, trace, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range names {
		fmt.Printf("  %-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res
}

// ---------------------------------------------------------------------------
// One repetition: set up every arm, then run them.
// ---------------------------------------------------------------------------

type armOut struct {
	name    string
	trace   *metrics.Trace
	wall    float64 // real seconds
	clock   *roundClock
	stats   *cluster.AsyncStats
	samples float64    // local-step samples
	steps   []stepTime // real time per local step, by round or update window
	delta   []float64  // final minus initial global parameters (traced runs)
	testAcc float64    // accuracy of the final global model on the held-out test set
}

type rep struct {
	p                   *prepared
	build, engines      float64 // set-up seconds: workload build, engine construction
	wall                float64
	allocBytes, mallocs uint64
	arms                []armOut
	tracers             []*tracer
}

func (r *rep) setup() float64 { return r.build + r.engines }

// captureAt is the training call at which traced convs capture operands:
// well inside the first arm's run on every conv workload.
const captureAt = 100

// setupRep builds the workload and every arm's engine. With traced set,
// each arm gets its own tracer and a rebuilt, span-wrapped network.
func setupRep(wl *workload, seed uint64, traced bool, origin time.Time) (*rep, []func() armOut) {
	runtime.GC()
	t0 := time.Now()
	p := wl.build(seed)
	r := &rep{p: p, build: time.Since(t0).Seconds()}
	runners := make([]func() armOut, len(p.arms))
	for i, a := range p.arms {
		w := a.w
		var t *tracer
		var stamps *[]time.Time
		if traced {
			t = newTracer(a.name, origin, p.trainRows)
			if i == 0 {
				t.captureAt = captureAt
			}
			b := &netBuilder{t: t}
			copyW := *a.w
			copyW.Proto = rebuild(a.w, b)
			t.convs = b.convs
			w = &copyW
			r.tracers = append(r.tracers, t)
		} else if a.async != nil {
			// The event-driven engine has no controller to time rounds by;
			// instead its network's loss stamps the evaluation the engine
			// makes at every trace point.
			stamps = new([]time.Time)
			copyW := *a.w
			copyW.Proto = rebuild(a.w, &netBuilder{stamps: stamps})
			w = &copyW
		}
		runners[i] = startArm(p, a, w, t, stamps)
	}
	r.engines = time.Since(t0).Seconds() - r.build
	return r, runners
}

func (r *rep) run(runners []func() armOut) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	r.arms = make([]armOut, len(runners))
	for i, run := range runners {
		r.arms[i] = run()
	}
	r.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
}

// startArm constructs one arm's engine (set-up) and returns its run.
// stamps, for an untraced event-driven arm, receives the real time of each
// trace-point evaluation.
func startArm(p *prepared, a armDef, ew *experiments.Workload, t *tracer, stamps *[]time.Time) func() armOut {
	if a.async != nil {
		e, err := cluster.NewAsync(ew.Proto, ew.Shards, ew.Train, ew.Test, ew.Delay, *a.async)
		if err != nil {
			panic(fmt.Sprintf("perfbench: %s: %v", a.name, err))
		}
		return func() armOut {
			o := armOut{name: a.name}
			root := beginRoot(t, kAsyncRun)
			start := time.Now()
			o.trace = e.Run(a.name)
			o.wall = time.Since(start).Seconds()
			endRoot(t, root)
			st := e.Stats()
			o.stats = &st
			o.samples = float64((st.Applied+st.Expired)*a.async.Tau) * float64(a.async.BatchSize)
			if stamps != nil {
				o.steps = windowTimes(*stamps, o.trace)
			}
			o.finish(a.w, e.GlobalParams(), t != nil)
			return o
		}
	}
	e := ew.Engine(a.cfg)
	active := allActive(ew.M)
	if p.faults != nil {
		buf := make([]bool, ew.M)
		active = func(round int) int { return p.faults.ActiveInto(round, buf) }
	}
	return func() armOut {
		inner := a.ctrl()
		if _, ok := inner.(cluster.RatioController); ok {
			panic("perfbench: ratio controllers are not wrapped")
		}
		if _, ok := inner.(cluster.BitsController); ok {
			panic("perfbench: bits controllers are not wrapped")
		}
		clk := &roundClock{inner: inner, t: t, active: active, batch: a.cfg.BatchSize}
		o := armOut{name: a.name, clock: clk}
		root := beginRoot(t, kArm)
		start := time.Now()
		o.trace = e.Run(clk, a.name)
		clk.finish()
		o.wall = time.Since(start).Seconds()
		endRoot(t, root)
		o.samples = clk.samples
		o.steps = clk.steps
		o.finish(a.w, e.GlobalParams(), t != nil)
		return o
	}
}

// finish scores the final global model on the test set with a plain clone
// of the prototype, after the engine run has ended, and (traced) keeps the
// run's parameter delta for the compression probes.
func (o *armOut) finish(w *experiments.Workload, final []float64, traced bool) {
	net := w.Proto.Clone()
	net.SetParams(final)
	o.testAcc = net.Accuracy(data.Batch{X: w.Test.X, Y: w.Test.Y})
	if traced {
		o.delta = subtract(final, w.Proto.Params())
	}
}

func beginRoot(t *tracer, kind int) int32 {
	if t == nil {
		return -1
	}
	return t.begin(kind)
}

func endRoot(t *tracer, id int32) {
	if t != nil {
		t.end(id)
	}
}

func subtract(a, b []float64) []float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// ---------------------------------------------------------------------------
// Output check and quality metrics.
// ---------------------------------------------------------------------------

// digest hashes every trace point bit for bit.
func digest(tr *metrics.Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range tr.Points {
		put(math.Float64bits(p.Time))
		put(uint64(p.Iter))
		put(math.Float64bits(p.Loss))
		put(math.Float64bits(p.Acc))
		put(uint64(p.Tau))
		put(math.Float64bits(p.LR))
	}
	return h.Sum64()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkTrace reports why an arm's trace fails the output check ("" = ok):
// every point finite (accuracy may be NaN where it was not evaluated),
// time and iteration non-decreasing, and for the headline arm the final
// loss under the workload's ceiling.
func checkTrace(wl *workload, tr *metrics.Trace) string {
	if len(tr.Points) < 2 {
		return "fewer than two trace points"
	}
	for i, p := range tr.Points {
		if !finite(p.Time) || !finite(p.Loss) || !finite(p.LR) || math.IsInf(p.Acc, 0) {
			return fmt.Sprintf("non-finite point %d: %+v", i, p)
		}
		if i > 0 && (p.Time < tr.Points[i-1].Time || p.Iter < tr.Points[i-1].Iter) {
			return fmt.Sprintf("point %d goes back in time", i)
		}
	}
	if base, _, _ := strings.Cut(tr.Name, "/"); base == wl.headline && tr.FinalLoss() > wl.ceiling {
		return fmt.Sprintf("final loss %.4g above ceiling %.4g", tr.FinalLoss(), wl.ceiling)
	}
	return ""
}

// timeToLoss is the simulated time at which the trace first reaches
// target, interpolated linearly between the two trace points around the
// crossing (NaN if never reached).
func timeToLoss(tr *metrics.Trace, target float64) float64 {
	for i, p := range tr.Points {
		if p.Loss <= target {
			if i == 0 {
				return p.Time
			}
			q := tr.Points[i-1]
			return q.Time + (q.Loss-target)/(q.Loss-p.Loss)*(p.Time-q.Time)
		}
	}
	return math.NaN()
}

// checker counts engine runs and their output-check failures.
type checker struct {
	attempted, failed int
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// checkRep applies the per-arm output check and, when want is non-nil,
// requires every arm's digest to equal want's.
func (c *checker) checkRep(wl *workload, r *rep, want map[string]uint64, what string) map[string]uint64 {
	got := map[string]uint64{}
	for _, a := range r.arms {
		c.attempted++
		got[a.name] = digest(a.trace)
		if msg := checkTrace(wl, a.trace); msg != "" {
			c.fail("%s arm %s: %s", what, a.name, msg)
		} else if want != nil && want[a.name] != got[a.name] {
			c.fail("%s arm %s: trace digest %016x differs from %016x", what, a.name, got[a.name], want[a.name])
		}
	}
	return got
}

func armByName(r *rep, name string) *armOut {
	for i := range r.arms {
		if r.arms[i].name == name {
			return &r.arms[i]
		}
	}
	panic("perfbench: no arm " + name)
}

// ---------------------------------------------------------------------------
// End-to-end run.
// ---------------------------------------------------------------------------

func runEndToEnd(wl *workload, seed uint64, seconds float64) result {
	var c checker
	var first *rep // kept for the quality metrics; later repeats are dropped once summarized
	var want map[string]uint64
	var setups, walls, allocs, rates []float64
	armSteps := map[string][][]stepTime{} // arm name -> one record per repetition
	begin := time.Now()
	for {
		r, runners := setupRep(wl, seed, false, begin)
		setups = append(setups, r.setup())
		r.run(runners)
		got := c.checkRep(wl, r, want, fmt.Sprintf("repeat %d", len(walls)+1))
		if first == nil {
			first, want = r, got
		}
		walls = append(walls, r.wall)
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
		var samples float64
		for _, a := range r.arms {
			samples += a.samples
			armSteps[a.name] = append(armSteps[a.name], a.steps)
		}
		rates = append(rates, samples/r.wall)
		// Two repetitions at least, so that every run checks its digests
		// across repeats; then stop when one more repetition would end
		// further past the deadline than stopping now falls short of it.
		if len(walls) >= 2 && seconds-time.Since(begin).Seconds() < r.wall/2 {
			break
		}
	}
	for len(setups) < minSetups {
		r, _ := setupRep(wl, seed, false, begin)
		setups = append(setups, r.setup())
	}
	for _, a := range first.arms {
		tr := a.trace
		fmt.Fprintf(os.Stderr, "perfbench: arm %-10s %4d points, iter %6d, sim %8.1f s, loss final %.4f min %.4f, test acc %.4f, real %.3f s\n",
			a.name, len(tr.Points), tr.Last().Iter, tr.Last().Time, tr.FinalLoss(), tr.MinLoss(), a.testAcc, a.wall)
	}

	// p50 takes each round at its fastest repetition: a short round runs
	// between two of the host's interruptions in some repetition, while its
	// median repetition follows the host's slow phases from run to run. The
	// slow rounds (evaluations, epoch reshuffles) seldom run clean and their
	// fastest repetition is the noisier estimate, so p95 takes each round
	// at its median repetition.
	fastest, middle := roundSteps(armSteps, &c)
	m := map[string]metric{
		"wall_s":        {median(walls), "s"},
		"setup_s":       {median(setups), "s"},
		"samples_per_s": {median(rates), "1/s"},
		"iter_ms_p50":   {stepQuantile(fastest, 0.50), "ms"},
		"iter_ms_p95":   {stepQuantile(middle, 0.95), "ms"},
		"alloc_mb":      {median(allocs), "MB"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
	quality(wl, first, m, &c)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d repetitions, %d setups\n", wl.name, len(walls), len(setups))
	return result{Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// quality adds the simulated-clock and model-quality metrics, as medians
// over sub-seeds. They are deterministic for a seed. An arm that never
// reaches the target loss is infinitely slow to it: some data draws keep
// even the synchronous baseline above the target, and the median over
// sub-seeds absorbs a minority of them. A median that does not (more than
// half the draws unreached) is not finite, and the run fails the output
// check for it.
func quality(wl *workload, r *rep, m map[string]metric, c *checker) {
	var tts, speedups, accs []float64
	for i := range r.arms {
		h := &r.arms[i]
		base, sub, _ := strings.Cut(h.name, "/")
		if base != wl.headline {
			continue
		}
		baseline := wl.baseline
		if sub != "" {
			baseline += "/" + sub
		}
		th, tb := timeToLoss(h.trace, wl.target), timeToLoss(armByName(r, baseline).trace, wl.target)
		if th <= 0 {
			c.fail("%s: target loss %g already met at the start", h.name, wl.target)
		}
		if math.IsNaN(th) {
			th = math.Inf(1)
		}
		if math.IsNaN(tb) {
			tb = math.Inf(1)
		}
		tts = append(tts, th)
		if !math.IsInf(th, 1) || !math.IsInf(tb, 1) { // neither reaching it gives no ratio
			speedups = append(speedups, tb/th)
		}
		accs = append(accs, h.testAcc)
	}
	m["sim_s_to_target"] = metric{median(tts), "sim_s"}
	m["speedup_vs_sync"] = metric{median(speedups), "x"}
	m["final_acc"] = metric{median(accs), "frac"}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// stepTime is the real time per local step of one lock-step round, or of
// the updates between two trace points of the event-driven engine, and the
// number of local steps it covers.
type stepTime struct {
	ms    float64
	steps int
}

// stepQuantile is the q-quantile of the real time per local step over all
// local steps: quantile of the list in which each stepTime appears once
// per step it covers, so a tau=100 round weighs as much as a hundred tau=1
// rounds.
func stepQuantile(st []stepTime, q float64) float64 {
	s := append([]stepTime(nil), st...)
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	n := 0
	for _, x := range s {
		n += x.steps
	}
	if n == 0 {
		return math.NaN()
	}
	at := func(i int) float64 { // the i-th smallest per-step time
		for _, x := range s {
			if i < x.steps {
				return x.ms
			}
			i -= x.steps
		}
		panic("perfbench: step index out of range")
	}
	pos := q * float64(n-1)
	lo := int(pos)
	v := at(lo)
	if frac := pos - float64(lo); frac > 0 {
		v += frac * (at(lo+1) - v)
	}
	return v
}

// roundSteps takes every round (or update window) of every arm at its
// fastest and at its median real time per step over the repetitions. The
// engines are deterministic, so a round does the same work in every
// repetition; a statistic over repetitions keeps what differs between
// rounds (their tau, loss checks, faults) and damps the phases in which the
// host runs the whole process slower.
func roundSteps(armSteps map[string][][]stepTime, c *checker) (fastest, middle []stepTime) {
	for name, reps := range armSteps {
		for _, rs := range reps {
			if len(rs) != len(reps[0]) {
				c.fail("arm %s: %d rounds in one repetition, %d in another", name, len(rs), len(reps[0]))
				return nil, nil
			}
		}
		ms := make([]float64, len(reps))
		for i, st := range reps[0] {
			for k, rs := range reps {
				ms[k] = rs[i].ms
			}
			fastest = append(fastest, stepTime{quantile(ms, 0), st.steps})
			middle = append(middle, stepTime{median(ms), st.steps})
		}
	}
	return fastest, middle
}

// windowTimes pairs an event-driven run's trace points with the stamps of
// their loss evaluations: each window between two points gives the real
// time per local step aggregated in it (its evaluation included).
func windowTimes(stamps []time.Time, tr *metrics.Trace) []stepTime {
	if len(stamps) != len(tr.Points) {
		panic(fmt.Sprintf("perfbench: %s: %d evaluations for %d trace points", tr.Name, len(stamps), len(tr.Points)))
	}
	var out []stepTime
	for k := 1; k < len(stamps); k++ {
		if n := tr.Points[k].Iter - tr.Points[k-1].Iter; n > 0 {
			out = append(out, stepTime{float64(stamps[k].Sub(stamps[k-1])) / 1e6 / float64(n), n})
		}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if frac := pos - float64(lo); frac > 0 {
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return s[lo]
}

// resetPeakRSS returns the freed heap to the OS and resets the kernel's
// resident-set high-water mark to the current resident set, so that
// peakRSSMB then covers only what runs after the reset: with --workload all,
// each workload's own peak. Where the kernel refuses the reset, the mark
// covers the whole process so far, which is the same in a one-workload run.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB is the resident-set high-water mark (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
