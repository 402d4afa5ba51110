package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The row-major im2col convolution Conv2D computed before its channel-major
// rewrite, kept as a bit-exact oracle: per sample, Im2Col + GemmTB forward,
// then GemmTA (weights) + Gemm + Col2Im (input) backward.

func refConvForward(s tensor.ConvShape, filters int, params []float64, in *tensor.Matrix) (*tensor.Matrix, []*tensor.Matrix) {
	pl, p := s.PatchLen(), s.OutHeight()*s.OutWidth()
	w := &tensor.Matrix{Rows: filters, Cols: pl, Data: params[:filters*pl]}
	bias := params[filters*pl:]
	out := tensor.NewMatrix(in.Rows, filters*p)
	prod := tensor.NewMatrix(p, filters)
	patches := make([]*tensor.Matrix, in.Rows)
	for i := range patches {
		patches[i] = tensor.NewMatrix(p, pl)
		tensor.Im2Col(s, in.Row(i), patches[i])
		tensor.GemmTB(1, patches[i], w, 0, prod)
		dst := out.Row(i)
		for f := 0; f < filters; f++ {
			for pos := 0; pos < p; pos++ {
				dst[f*p+pos] = prod.At(pos, f) + bias[f]
			}
		}
	}
	return out, patches
}

func refConvBackward(s tensor.ConvShape, filters int, params []float64, patches []*tensor.Matrix,
	dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	pl, p := s.PatchLen(), s.OutHeight()*s.OutWidth()
	w := &tensor.Matrix{Rows: filters, Cols: pl, Data: params[:filters*pl]}
	dW := &tensor.Matrix{Rows: filters, Cols: pl, Data: dParams[:filters*pl]}
	dB := dParams[filters*pl:]
	dIn := tensor.NewMatrix(dOut.Rows, s.Channels*s.Height*s.Width)
	dProd := tensor.NewMatrix(p, filters)
	dPatches := tensor.NewMatrix(p, pl)
	for i := 0; i < dOut.Rows; i++ {
		src := dOut.Row(i)
		for f := 0; f < filters; f++ {
			for pos := 0; pos < p; pos++ {
				g := src[f*p+pos]
				dProd.Set(pos, f, g)
				dB[f] += g
			}
		}
		tensor.GemmTA(1, dProd, patches[i], 1, dW)
		tensor.Gemm(1, dProd, w, 0, dPatches)
		tensor.Col2Im(s, dPatches, dIn.Row(i))
	}
	return dIn
}

// sparseNormals fills a rows x cols matrix with normals of which about
// zeroFrac are exact zeros (a mix of +0 and -0), the density the layer
// sees behind ReLU and max-pool.
func sparseNormals(r *rng.Rand, rows, cols int, zeroFrac float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < zeroFrac/8:
			m.Data[i] = math.Copysign(0, -1)
		case u < zeroFrac:
			m.Data[i] = 0
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#016x), oracle %v (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConv2DMatchesIm2ColOracle bit-compares Conv2D's output, input
// gradient and accumulated parameter gradient with the oracle at the
// workload conv shapes and the geometry edge cases, at batch sizes from a
// single sample to the 512-row evaluation batch. One layer instance serves
// every batch size in turn, so scratch reuse across shrinking and growing
// batches is covered too.
func TestConv2DMatchesIm2ColOracle(t *testing.T) {
	shapes := []struct {
		name                                  string
		c, h, w, kernel, stride, pad, filters int
	}{
		{"vgg-conv1", 3, 8, 8, 3, 1, 1, 8},
		{"vgg-conv2", 8, 4, 4, 3, 1, 1, 16},
		{"resnet-block", 8, 8, 8, 3, 1, 1, 8},
		{"resnet-stem", 3, 8, 8, 3, 1, 1, 8},
		{"quick-1ch", 1, 8, 8, 3, 1, 1, 8},
		{"stride2", 3, 8, 8, 3, 2, 1, 4},
		{"pad0", 2, 6, 6, 3, 1, 0, 5},
		{"nonsquare", 2, 5, 7, 3, 1, 1, 3},
		{"nonsquare-k2s2", 2, 7, 5, 2, 2, 0, 3},
		{"padding-only-taps", 1, 2, 2, 3, 2, 1, 2},
	}
	for si, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			conv := NewConv2D(sh.c, sh.h, sh.w, sh.kernel, sh.stride, sh.pad, sh.filters)
			s := conv.shape
			r := rng.New(uint64(100 + si))
			params := make([]float64, conv.ParamLen())
			conv.Init(params, r)
			for i := range params {
				params[i] += 0.1 * r.NormFloat64() // biases nonzero too
			}
			params[0], params[len(params)/2] = 0, math.Copysign(0, -1) // exact zero weights
			for _, batch := range []int{16, 512, 1, 16} {
				in := sparseNormals(r, batch, conv.InDim(), 0.5)
				dOut := sparseNormals(r, batch, conv.OutDim(), 0.75)
				seed := sparseNormals(r, 1, len(params), 0.2).Data // dParams accumulates onto this
				what := func(x string) string { return fmt.Sprintf("batch %d %s", batch, x) }

				wantOut, patches := refConvForward(s, sh.filters, params, in)
				wantDP := append([]float64(nil), seed...)
				wantDIn := refConvBackward(s, sh.filters, params, patches, dOut, wantDP)

				bitsEqual(t, what("out"), conv.Forward(params, in).Data, wantOut.Data)
				gotDP := append([]float64(nil), seed...)
				bitsEqual(t, what("dIn"), conv.Backward(params, dOut, gotDP).Data, wantDIn.Data)
				bitsEqual(t, what("dParams"), gotDP, wantDP)
			}
		})
	}
}
