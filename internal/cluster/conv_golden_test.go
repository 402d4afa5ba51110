package cluster

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// Conv-net goldens. The logistic goldens in golden_test.go never reach a
// convolution, so these pin short VGGNano and ResNetNano trajectories —
// conv, ReLU, max-pool and residual arithmetic under training and under
// the full-dataset loss evaluation — to the digests of the row-major
// im2col Conv2D (per-sample Im2Col + GemmTB forward, GemmTA + Gemm +
// Col2Im backward) that preceded the channel-major rewrite.
func TestConvNetGoldenTraces(t *testing.T) {
	shape := data.ImageShape{Channels: 3, Height: 8, Width: 8}
	cases := []struct {
		name          string
		build         func(data.ImageShape, int) *nn.Network
		params, trace uint64
	}{
		{"vgg", nn.NewVGGNano, 0xd1973e02561288f5, 0xde3b5f6b182d1d46},
		{"resnet", nn.NewResNetNano, 0x932261461f0ad709, 0x6bfe21f916347262},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			tc, workers := tc, workers
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				r := rng.New(31)
				full := data.SynthImages(data.SynthImagesConfig{
					Classes: 4, Shape: shape, N: 320, Noise: 0.8,
				}, r)
				train, test := data.SplitTrainTest(full, 64, r)
				proto := tc.build(shape, 4)
				proto.InitParams(r.Split())
				dm := delaymodel.New(2, rng.Constant{Value: 1}, rng.Constant{Value: 1},
					delaymodel.ConstantScaling{})
				e, err := New(proto, data.ShardIID(train, 2, r.Split()), train, test, dm, Config{
					BatchSize: 16, MaxIters: 40, EvalEvery: 10, AccEverySync: 1,
					ComputeWorkers: workers, Seed: 32,
				})
				if err != nil {
					t.Fatal(err)
				}
				tr := e.Run(FixedTau{Tau: 4, Schedule: sgd.Const{Eta: 0.05}}, tc.name)
				if got := hashParams(e.GlobalParams()); got != tc.params {
					t.Errorf("workers=%d: params hash %#016x, golden %#016x", workers, got, tc.params)
				}
				if got := hashTraceAcc(tr); got != tc.trace {
					t.Errorf("workers=%d: trace hash %#016x, golden %#016x", workers, got, tc.trace)
				}
			})
		}
	}
}

// hashTraceAcc extends hashTrace with each point's test accuracy, so the
// digest also covers the held-out forward passes.
func hashTraceAcc(tr *metrics.Trace) uint64 {
	var sum uint64 = 14695981039346656037
	for _, p := range tr.Points {
		hashBits(&sum, p.Time)
		hashBits(&sum, p.Loss)
		hashBits(&sum, p.Acc)
	}
	return sum
}
