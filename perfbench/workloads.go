package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// workload is one benchmark input: a set of engine runs ("arms") on a
// shared, seeded experiments.Workload, plus what the output check and the
// quality metrics need to know about it.
type workload struct {
	name        string
	defaultSeed uint64
	model       string // network family, the <model> part of tensor probe names

	// subSeeds > 1 runs the arms once per derived seed, as independent
	// arms named "<arm>/<i>"; the quality metrics are medians over them.
	subSeeds int

	// headline is the arm whose quality the end-to-end metrics report;
	// baseline is the fully synchronous arm speedup_vs_sync divides by.
	headline, baseline string
	// target is the fixed loss for sim_s_to_target; ceiling is the final
	// headline loss above which a run fails the output check.
	target, ceiling float64

	prepare func(seed uint64) *prepared // the arms of one (sub-)seed

	// reference, when set, runs the repository's own experiment code for
	// the same protocol; the benchmark's arms must reproduce its traces.
	reference func(seed uint64) map[string]*metrics.Trace
}

// prepared is a built workload: arm configs plus the read-only inputs
// they share.
type prepared struct {
	arms      []armDef
	trainRows int
	faults    *faults.Schedule // nil when the workload injects none
	graph     string           // gossip graph spec ("" when none)
}

// armDef configures one engine run on w: a lock-step engine with a
// controller, or (when async is non-nil) the event-driven engine.
type armDef struct {
	name  string
	w     *experiments.Workload
	cfg   cluster.Config
	ctrl  func() cluster.Controller
	async *cluster.AsyncConfig
}

var workloads = []*workload{vggFig9(), resnetFig10(), gossipChurn(), asyncFed()}

// build prepares every arm of a run: prepare's arms for the seed, or for
// each derived sub-seed.
func (wl *workload) build(seed uint64) *prepared {
	if wl.subSeeds <= 1 {
		return wl.prepare(seed)
	}
	var all *prepared
	for i := 0; i < wl.subSeeds; i++ {
		p := wl.prepare(seed*uint64(wl.subSeeds) + uint64(i))
		for j := range p.arms {
			p.arms[j].name = fmt.Sprintf("%s/%d", p.arms[j].name, i)
		}
		if all == nil {
			all = p
		} else {
			all.arms = append(all.arms, p.arms...)
		}
	}
	return all
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// comparisonArms mirrors experiments.RunComparison's arm construction for
// a fixed-LR spec: one FixedTau arm per spec.Taus entry, then AdaComm.
func comparisonArms(spec experiments.TrainSpec, w *experiments.Workload) []armDef {
	// RunComparison's TrainSpec defaults for fields the figure specs leave unset.
	evalEvery, evalSubset := spec.EvalEvery, spec.EvalSubset
	if evalEvery == 0 {
		evalEvery = 100
	}
	if evalSubset == 0 {
		evalSubset = 512
	}
	sched := sgd.Const{Eta: spec.BaseLR}
	cfg := cluster.Config{
		BatchSize:      spec.BatchSize,
		MaxTime:        spec.TimeBudget,
		EvalEvery:      evalEvery,
		EvalSubset:     evalSubset,
		AccEverySync:   5,
		ComputeWorkers: 1,
		Seed:           spec.Seed + 1,
	}
	var arms []armDef
	for _, tau := range spec.Taus {
		tau := tau
		arms = append(arms, armDef{name: fmt.Sprintf("tau=%d", tau), w: w, cfg: cfg,
			ctrl: func() cluster.Controller { return cluster.FixedTau{Tau: tau, Schedule: sched} }})
	}
	arms = append(arms, armDef{name: "AdaComm", w: w, cfg: cfg, ctrl: func() cluster.Controller {
		return core.NewAdaComm(core.Config{
			Tau0: spec.Tau0, Interval: spec.Interval, Gamma: 0.5,
			Schedule: sched, Coupling: core.NoCoupling,
		})
	}})
	return arms
}

func comparisonWorkload(w *workload, spec func(seed uint64) experiments.TrainSpec) *workload {
	w.prepare = func(seed uint64) *prepared {
		s := spec(seed)
		wl := experiments.BuildWorkload(s.Arch, s.Classes, s.M, s.Scale, s.Seed)
		return &prepared{arms: comparisonArms(s, wl), trainRows: s.BatchSize}
	}
	w.reference = func(seed uint64) map[string]*metrics.Trace {
		s := spec(seed)
		old := experiments.SetWorkers(1)
		defer experiments.SetWorkers(old)
		return experiments.RunComparison(s).Traces
	}
	return w
}

func vggFig9() *workload {
	return comparisonWorkload(&workload{
		name: "vgg-fig9", defaultSeed: 109, model: "vgg",
		headline: "AdaComm", baseline: "tau=1",
		target: 1.0, ceiling: 1.0,
	}, func(seed uint64) experiments.TrainSpec {
		s := experiments.Fig9Spec(10, false, experiments.ScaleQuick)
		s.Seed = seed
		s.ComputeWorkers = 1
		return s
	})
}

func resnetFig10() *workload {
	return comparisonWorkload(&workload{
		name: "resnet-fig10", defaultSeed: 110, model: "resnet",
		headline: "AdaComm", baseline: "tau=1",
		target: 0.6, ceiling: 1.0,
	}, func(seed uint64) experiments.TrainSpec {
		s := experiments.Fig10Spec(10, false, experiments.ScaleQuick)
		s.Seed = seed
		s.Taus = []int{1} // fits the run length; the other baselines add no new layer
		s.ComputeWorkers = 1
		return s
	})
}

const (
	gossipWorkers   = 16
	gossipGraph     = "torus:4x4"
	gossipFaults    = "crash:3@r600,blip:7@r150-400,blip:12@r700-900,slow:5x4@r100-500,drop:0.05"
	gossipBudget    = 4000.0 // simulated seconds per sub-seed
	gossipBandwidth = 128.0  // bytes per simulated second on every link
)

func gossipChurn() *workload {
	return &workload{
		name: "gossip-churn", defaultSeed: 150, model: "logistic", subSeeds: 8,
		headline: "choco", baseline: "sync",
		target: 0.8, ceiling: 0.9,
		prepare: func(seed uint64) *prepared {
			w := experiments.BuildWorkload(experiments.ArchLogistic, 4, gossipWorkers, experiments.ScaleFull, seed)
			w.Delay.Bandwidth = gossipBandwidth
			sched := mustFaults(gossipFaults, gossipWorkers)
			topo, err := comm.ParseTopology(gossipGraph)
			if err != nil {
				panic(err)
			}
			base := cluster.Config{
				BatchSize: 8, MaxTime: gossipBudget, EvalEvery: 50, EvalSubset: 256,
				ComputeWorkers: 1, Faults: sched, Seed: seed + 1,
			}
			choco := base
			choco.Strategy = cluster.RingGossip
			choco.Topology = topo
			choco.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, Wire: compress.WireFloat32}
			choco.AdaptGossipGamma = true
			ctrl := func() cluster.Controller { return cluster.FixedTau{Tau: 1, Schedule: sgd.Const{Eta: 0.1}} }
			return &prepared{trainRows: base.BatchSize, faults: sched, graph: gossipGraph, arms: []armDef{
				{name: "choco", w: w, cfg: choco, ctrl: ctrl},
				{name: "sync", w: w, cfg: base, ctrl: ctrl},
			}}
		},
	}
}

const (
	fedClients = 1024
	fedK       = 32
	fedBudget  = 400.0 // simulated seconds per sub-seed
)

func asyncFed() *workload {
	return &workload{
		name: "async-fed", defaultSeed: 601, model: "logistic", subSeeds: 16,
		headline: "k-of-m", baseline: "sync",
		target: 1.0, ceiling: 0.9,
		prepare: func(seed uint64) *prepared {
			w := experiments.BuildWorkload(experiments.ArchLogistic, 4, fedClients, experiments.ScaleFull, seed)
			w.Shards = data.ShardByLabel(w.Train, fedClients, rng.New(seed+7))
			dm := delaymodel.FederatedProfile(1, 4096).Model(fedClients, nil)
			dm.Jitter = rng.Pareto{Xm: 1, Alpha: 3}
			dm.JitterSeed = seed + 9
			w.Delay = dm
			// ScaleFull's 1024 training examples give every client one
			// example, so a local step is one sample.
			cfg := cluster.AsyncConfig{
				Participation: fedK, Tau: 2, BatchSize: 1, LR: 0.1,
				Compress: compress.Spec{Kind: compress.KindTopK, Ratio: 0.25},
				MaxTime:  fedBudget, EvalEvery: 200, EvalSubset: 512, Seed: seed + 2,
			}
			barrier := cfg
			barrier.InFlight = fedK
			return &prepared{trainRows: cfg.BatchSize, arms: []armDef{
				{name: "k-of-m", w: w, async: &cfg},
				{name: "sync", w: w, async: &barrier},
			}}
		},
	}
}

func mustFaults(spec string, m int) *faults.Schedule {
	s, err := faults.Parse(spec)
	if err == nil {
		err = s.Validate(m)
	}
	if err != nil {
		panic(err)
	}
	return s
}

// rebuild returns a copy of the prototype network built by b, with the
// prototype's parameters copied in. The copy must match the prototype's
// parameter layout; the per-arm trace digests then prove it computes the
// same function.
func rebuild(w *experiments.Workload, b *netBuilder) *nn.Network {
	var net *nn.Network
	switch w.Arch {
	case experiments.ArchVGG, experiments.ArchResNet:
		shape := w.Train.Shape
		if w.Arch == experiments.ArchVGG {
			net = b.vgg(shape, w.Classes)
		} else {
			net = b.resnet(shape, w.Classes)
		}
	case experiments.ArchLogistic:
		net = b.logistic(w.Proto.InDim(), w.Classes)
	default:
		panic(fmt.Sprintf("perfbench: no rebuild for arch %q", w.Arch))
	}
	if net.ParamLen() != w.Proto.ParamLen() || net.NumLayers() != w.Proto.NumLayers() {
		panic(fmt.Sprintf("perfbench: rebuilt %s has %d params in %d layers, prototype %d in %d",
			w.Arch, net.ParamLen(), net.NumLayers(), w.Proto.ParamLen(), w.Proto.NumLayers()))
	}
	net.SetParams(w.Proto.Params())
	return net
}
