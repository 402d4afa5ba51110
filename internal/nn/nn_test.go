package nn

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// classBatch builds a small deterministic classification batch.
func classBatch(dim, classes, n int, seed uint64) data.Batch {
	r := rng.New(seed)
	b := data.Batch{X: tensor.NewMatrix(n, dim), Y: make([]int, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			b.X.Set(i, j, r.NormFloat64())
		}
		b.Y[i] = r.Intn(classes)
	}
	return b
}

func regBatch(dim, n int, seed uint64) data.Batch {
	r := rng.New(seed)
	b := data.Batch{X: tensor.NewMatrix(n, dim), T: make([]float64, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			b.X.Set(i, j, r.NormFloat64())
		}
		b.T[i] = r.NormFloat64()
	}
	return b
}

func checkGrad(t *testing.T, n *Network, b data.Batch, tol float64) {
	t.Helper()
	n.InitParams(rng.New(99))
	if worst := GradCheck(n, b, 1e-5); worst > tol {
		t.Fatalf("gradient check failed: max relative error %v > %v", worst, tol)
	}
}

func TestGradDense(t *testing.T) {
	n := NewNetwork(SoftmaxCrossEntropy{}, 3, NewDense(4, 3))
	checkGrad(t, n, classBatch(4, 3, 5, 1), 1e-5)
}

func TestGradMSE(t *testing.T) {
	n := NewNetwork(MSE{}, 0, NewDense(4, 1))
	checkGrad(t, n, regBatch(4, 5, 2), 1e-5)
}

func TestGradMLP(t *testing.T) {
	n := NewMLP(5, []int{7, 6}, 3)
	checkGrad(t, n, classBatch(5, 3, 4, 3), 1e-4)
}

func TestGradTanh(t *testing.T) {
	n := NewNetwork(SoftmaxCrossEntropy{}, 2,
		NewDense(3, 4), NewTanh(4), NewDense(4, 2))
	checkGrad(t, n, classBatch(3, 2, 4, 4), 1e-5)
}

func TestGradConv(t *testing.T) {
	conv := NewConv2D(2, 4, 4, 3, 1, 1, 3)
	n := NewNetwork(SoftmaxCrossEntropy{}, 2,
		conv, NewReLU(conv.OutDim()), NewDense(conv.OutDim(), 2))
	checkGrad(t, n, classBatch(2*4*4, 2, 3, 5), 1e-4)
}

func TestGradConvStride2(t *testing.T) {
	conv := NewConv2D(1, 6, 6, 3, 2, 1, 2)
	n := NewNetwork(SoftmaxCrossEntropy{}, 2,
		conv, NewDense(conv.OutDim(), 2))
	checkGrad(t, n, classBatch(36, 2, 3, 6), 1e-4)
}

func TestGradMaxPool(t *testing.T) {
	pool := NewMaxPool2x2(2, 4, 4)
	n := NewNetwork(SoftmaxCrossEntropy{}, 2,
		pool, NewDense(pool.OutDim(), 2))
	checkGrad(t, n, classBatch(2*4*4, 2, 3, 7), 1e-4)
}

func TestGradResidual(t *testing.T) {
	res := NewResidual(NewDense(5, 5), NewReLU(5), NewDense(5, 5))
	n := NewNetwork(SoftmaxCrossEntropy{}, 2, res, NewDense(5, 2))
	checkGrad(t, n, classBatch(5, 2, 4, 8), 1e-4)
}

func TestGradVGGNano(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	n := NewVGGNano(shape, 3)
	checkGrad(t, n, classBatch(shape.Len(), 3, 2, 9), 1e-3)
}

func TestGradResNetNano(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	n := NewResNetNano(shape, 3)
	checkGrad(t, n, classBatch(shape.Len(), 3, 2, 10), 1e-3)
}

func TestSoftmaxLossValue(t *testing.T) {
	// Uniform logits over K classes give loss log(K).
	out := tensor.NewMatrix(2, 4)
	b := data.Batch{Y: []int{0, 3}}
	loss := SoftmaxCrossEntropy{}.Eval(out, b, nil)
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform softmax loss = %v, want %v", loss, math.Log(4))
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	out := tensor.NewMatrix(1, 3)
	out.Set(0, 0, 1e4) // would overflow exp without the max shift
	out.Set(0, 1, 0)
	out.Set(0, 2, -1e4)
	b := data.Batch{Y: []int{0}}
	d := tensor.NewMatrix(1, 3)
	loss := SoftmaxCrossEntropy{}.Eval(out, b, d)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestMSELossValue(t *testing.T) {
	out := tensor.NewMatrix(2, 1)
	out.Set(0, 0, 3)
	out.Set(1, 0, -1)
	b := data.Batch{T: []float64{1, -1}}
	loss := MSE{}.Eval(out, b, nil)
	// (0.5*4 + 0.5*0)/2 = 1
	if math.Abs(loss-1) > 1e-12 {
		t.Fatalf("MSE = %v, want 1", loss)
	}
}

func TestNetworkDimsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched layer dims")
		}
	}()
	NewNetwork(SoftmaxCrossEntropy{}, 2, NewDense(3, 4), NewDense(5, 2))
}

func TestCloneIndependence(t *testing.T) {
	n := NewMLP(4, []int{5}, 3)
	n.InitParams(rng.New(1))
	c := n.Clone()
	if c.ParamLen() != n.ParamLen() {
		t.Fatal("clone has different param count")
	}
	for i := range n.Params() {
		if n.Params()[i] != c.Params()[i] {
			t.Fatal("clone params differ")
		}
	}
	c.Params()[0] += 1
	if n.Params()[0] == c.Params()[0] {
		t.Fatal("clone shares parameter storage")
	}
	// Both must produce valid losses after divergence (independent caches).
	b := classBatch(4, 3, 6, 11)
	_ = n.Loss(b)
	_ = c.Loss(b)
}

func TestCloneSameForward(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 4, Width: 4}
	n := NewVGGNano(shape, 2)
	n.InitParams(rng.New(5))
	c := n.Clone()
	b := classBatch(shape.Len(), 2, 3, 12)
	if l1, l2 := n.Loss(b), c.Loss(b); l1 != l2 {
		t.Fatalf("clone loss %v != original %v", l2, l1)
	}
}

func TestAccuracy(t *testing.T) {
	// A hand-built 2-class "network" that always predicts class argmax of
	// the first two inputs. Use identity-ish dense weights.
	n := NewNetwork(SoftmaxCrossEntropy{}, 2, NewDense(2, 2))
	p := n.Params()
	// W = I, b = 0 -> logits = inputs.
	p[0], p[1], p[2], p[3] = 1, 0, 0, 1
	b := data.Batch{X: tensor.NewMatrix(3, 2), Y: []int{0, 1, 1}}
	b.X.Set(0, 0, 2) // predicts 0, correct
	b.X.Set(1, 1, 2) // predicts 1, correct
	b.X.Set(2, 0, 2) // predicts 0, wrong
	if acc := n.Accuracy(b); math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy %v, want 2/3", acc)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Plain GD on a tiny separable problem must reduce the loss; this is
	// the end-to-end sanity check of the forward/backward plumbing.
	ds := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 3, Dim: 6, N: 120, Separation: 5, Noise: 0.5,
	}, rng.New(13))
	n := NewLogisticRegression(6, 3)
	n.InitParams(rng.New(14))
	b := data.FullBatch(ds)
	grad := make([]float64, n.ParamLen())
	first := n.Loss(b)
	for it := 0; it < 200; it++ {
		n.LossGrad(b, grad)
		tensor.Axpy(-0.5, grad, n.Params())
	}
	last := n.Loss(b)
	if last >= first/4 {
		t.Fatalf("GD failed to reduce loss: %v -> %v", first, last)
	}
	if acc := n.Accuracy(b); acc < 0.9 {
		t.Fatalf("accuracy %v too low on separable data", acc)
	}
}

func TestMLPLearnsNonlinear(t *testing.T) {
	// Two-spirals is not linearly separable: logistic regression plateaus
	// near 50% while a small MLP exceeds 75% — evidence the hidden layers
	// and their gradients genuinely work.
	ds := data.TwoSpirals(300, 0.02, rng.New(15))
	b := data.FullBatch(ds)

	mlp := NewMLP(2, []int{32, 32}, 2)
	mlp.InitParams(rng.New(16))
	grad := make([]float64, mlp.ParamLen())
	for it := 0; it < 1500; it++ {
		mlp.LossGrad(b, grad)
		tensor.Axpy(-0.5, grad, mlp.Params())
	}
	if acc := mlp.Accuracy(b); acc < 0.75 {
		t.Fatalf("MLP accuracy %v too low on spirals", acc)
	}
}

func TestVGGNanoLearnsImages(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	ds := data.SynthImages(data.SynthImagesConfig{
		Classes: 3, Shape: shape, N: 90, Noise: 0.1,
	}, rng.New(17))
	b := data.FullBatch(ds)
	n := NewVGGNano(shape, 3)
	n.InitParams(rng.New(18))
	grad := make([]float64, n.ParamLen())
	first := n.Loss(b)
	for it := 0; it < 150; it++ {
		n.LossGrad(b, grad)
		tensor.Axpy(-0.05, grad, n.Params())
	}
	last := n.Loss(b)
	if last >= 0.9*first {
		t.Fatalf("VGGNano failed to learn: %v -> %v", first, last)
	}
}

func TestParamLenConsistency(t *testing.T) {
	shape := data.ImageShape{Channels: 3, Height: 8, Width: 8}
	for name, n := range map[string]*Network{
		"logistic": NewLogisticRegression(10, 4),
		"mlp":      NewMLP(10, []int{20}, 4),
		"vgg":      NewVGGNano(shape, 10),
		"resnet":   NewResNetNano(shape, 10),
	} {
		if n.ParamLen() != len(n.Params()) {
			t.Fatalf("%s: ParamLen %d != len(Params) %d", name, n.ParamLen(), len(n.Params()))
		}
		if n.ParamLen() == 0 {
			t.Fatalf("%s: zero parameters", name)
		}
	}
}

func TestSetParams(t *testing.T) {
	n := NewLogisticRegression(3, 2)
	src := make([]float64, n.ParamLen())
	for i := range src {
		src[i] = float64(i)
	}
	n.SetParams(src)
	for i, v := range n.Params() {
		if v != float64(i) {
			t.Fatal("SetParams did not copy")
		}
	}
	src[0] = 999
	if n.Params()[0] == 999 {
		t.Fatal("SetParams aliases source")
	}
}

func TestLossGradZeroesGrad(t *testing.T) {
	n := NewLogisticRegression(3, 2)
	n.InitParams(rng.New(19))
	b := classBatch(3, 2, 4, 20)
	grad := make([]float64, n.ParamLen())
	tensor.Fill(grad, 1e9) // stale garbage must be cleared
	n.LossGrad(b, grad)
	for _, g := range grad {
		if math.Abs(g) > 1e6 {
			t.Fatal("LossGrad did not zero the gradient buffer")
		}
	}
}

func TestReLUEdgeValues(t *testing.T) {
	// The masked formulation must agree bit for bit with the branchy
	// "v > 0 ? v : 0" on every edge value: ±0 and NaN map to +0, ±Inf and
	// subnormals keep their sign rule, and backward passes the gradient's
	// exact bits (NaN, -0 and Inf included) wherever the output is positive.
	neg0 := math.Copysign(0, -1)
	edges := []float64{1, -1, 0, neg0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64}
	n := len(edges)
	in := tensor.NewMatrix(n, n)
	dOut := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			in.Set(i, j, edges[j])
			dOut.Set(i, j, edges[i])
		}
	}
	l := NewReLU(n)
	out := l.Forward(nil, in)
	dIn := l.Backward(nil, dOut, nil)
	for k, v := range in.Data {
		wantOut, wantDIn := 0.0, 0.0
		if v > 0 {
			wantOut, wantDIn = v, dOut.Data[k]
		}
		if got := out.Data[k]; math.Float64bits(got) != math.Float64bits(wantOut) {
			t.Errorf("forward(%v) = %v, want %v", v, got, wantOut)
		}
		if got := dIn.Data[k]; math.Float64bits(got) != math.Float64bits(wantDIn) {
			t.Errorf("backward(out=%v, g=%v) = %v, want %v", out.Data[k], dOut.Data[k], got, wantDIn)
		}
	}
}
