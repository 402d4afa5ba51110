package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Scratch arena: every layer owns the matrices it returns from Forward and
// Backward and reuses them across calls, so the training hot path performs
// no per-step allocations once buffers reach the largest batch size seen.
// The ownership rule is: one arena per layer instance, layer instances
// belong to exactly one Network, and a Network is NOT goroutine-safe — each
// simulated worker clones the network, so arenas never race. Returned
// matrices are valid until the layer's next Forward/Backward call; callers
// that need to retain results must copy them.

// ensureMat returns a rows x cols matrix backed by *m's storage when its
// capacity allows, growing it otherwise. Contents are stale: callers must
// overwrite (or zero) every element before exposing the matrix.
func ensureMat(m **tensor.Matrix, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if *m == nil || cap((*m).Data) < need {
		*m = tensor.NewMatrix(rows, cols)
		return *m
	}
	(*m).Rows, (*m).Cols = rows, cols
	(*m).Data = (*m).Data[:need]
	return *m
}

// Dense is a fully connected layer: out = in*W^T + b, with W stored
// row-major (out x in) followed by b (out) in the parameter slice.
type Dense struct {
	in, out int
	lastIn  *tensor.Matrix // forward cache

	outBuf, dInBuf *tensor.Matrix // scratch arena
}

// NewDense creates a Dense layer mapping in -> out features.
func NewDense(in, out int) *Dense {
	if in < 1 || out < 1 {
		panic("nn: Dense dims must be >= 1")
	}
	return &Dense{in: in, out: out}
}

// InDim implements Layer.
func (d *Dense) InDim() int { return d.in }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.out }

// ParamLen implements Layer.
func (d *Dense) ParamLen() int { return d.out*d.in + d.out }

// Init uses He initialization (appropriate for the ReLU nets in the zoo);
// biases start at zero.
func (d *Dense) Init(params []float64, r *rng.Rand) {
	std := math.Sqrt(2 / float64(d.in))
	for i := 0; i < d.out*d.in; i++ {
		params[i] = std * r.NormFloat64()
	}
	for i := d.out * d.in; i < len(params); i++ {
		params[i] = 0
	}
}

func (d *Dense) weights(params []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: d.out, Cols: d.in, Data: params[:d.out*d.in]}
}

// Forward implements Layer.
func (d *Dense) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	d.lastIn = in
	w := d.weights(params)
	bias := params[d.out*d.in:]
	out := ensureMat(&d.outBuf, in.Rows, d.out)
	tensor.GemmTB(1, in, w, 0, out) // out = in * W^T (beta=0 overwrites)
	for i := 0; i < out.Rows; i++ {
		tensor.Axpy(1, bias, out.Row(i))
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	w := d.weights(params)
	dW := &tensor.Matrix{Rows: d.out, Cols: d.in, Data: dParams[:d.out*d.in]}
	dB := dParams[d.out*d.in:]
	// dW += dOut^T * in ; dB += column sums of dOut ; dIn = dOut * W.
	tensor.GemmTA(1, dOut, d.lastIn, 1, dW)
	for i := 0; i < dOut.Rows; i++ {
		tensor.Axpy(1, dOut.Row(i), dB)
	}
	dIn := ensureMat(&d.dInBuf, dOut.Rows, d.in)
	tensor.Gemm(1, dOut, w, 0, dIn) // beta=0 overwrites
	return dIn
}

// Clone implements Layer.
func (d *Dense) Clone() Layer { return NewDense(d.in, d.out) }

// positiveMask is all ones when v > 0 and zero otherwise (NaN included).
// ANDing a value's bits with it yields the value or +0; the conditional
// assignment compiles to a conditional move, so the elementwise ReLU loops
// carry no data-dependent branch to mispredict on half-zero activations.
func positiveMask(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// ReLU applies max(0, x) elementwise: v for v > 0, +0 otherwise (-0 and
// NaN included).
type ReLU struct {
	dim     int
	lastOut *tensor.Matrix

	outBuf, dInBuf *tensor.Matrix // scratch arena
}

// NewReLU creates a ReLU over vectors of the given length.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

// InDim implements Layer.
func (l *ReLU) InDim() int { return l.dim }

// OutDim implements Layer.
func (l *ReLU) OutDim() int { return l.dim }

// ParamLen implements Layer.
func (l *ReLU) ParamLen() int { return 0 }

// Init implements Layer (no parameters).
func (l *ReLU) Init([]float64, *rng.Rand) {}

// Forward implements Layer.
func (l *ReLU) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	out := ensureMat(&l.outBuf, in.Rows, in.Cols)
	dst := out.Data[:len(in.Data)]
	for i, v := range in.Data {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(v))
	}
	l.lastOut = out
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	dIn := ensureMat(&l.dInBuf, dOut.Rows, dOut.Cols)
	dst := dIn.Data[:len(l.lastOut.Data)]
	src := dOut.Data[:len(l.lastOut.Data)]
	for i, v := range l.lastOut.Data {
		dst[i] = math.Float64frombits(math.Float64bits(src[i]) & positiveMask(v))
	}
	return dIn
}

// Clone implements Layer.
func (l *ReLU) Clone() Layer { return NewReLU(l.dim) }

// Tanh applies tanh elementwise.
type Tanh struct {
	dim     int
	lastOut *tensor.Matrix

	outBuf, dInBuf *tensor.Matrix // scratch arena
}

// NewTanh creates a Tanh over vectors of the given length.
func NewTanh(dim int) *Tanh { return &Tanh{dim: dim} }

// InDim implements Layer.
func (l *Tanh) InDim() int { return l.dim }

// OutDim implements Layer.
func (l *Tanh) OutDim() int { return l.dim }

// ParamLen implements Layer.
func (l *Tanh) ParamLen() int { return 0 }

// Init implements Layer (no parameters).
func (l *Tanh) Init([]float64, *rng.Rand) {}

// Forward implements Layer.
func (l *Tanh) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	out := ensureMat(&l.outBuf, in.Rows, in.Cols)
	for i, v := range in.Data {
		out.Data[i] = math.Tanh(v)
	}
	l.lastOut = out
	return out
}

// Backward implements Layer.
func (l *Tanh) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	dIn := ensureMat(&l.dInBuf, dOut.Rows, dOut.Cols)
	for i, y := range l.lastOut.Data {
		dIn.Data[i] = dOut.Data[i] * (1 - y*y)
	}
	return dIn
}

// Clone implements Layer.
func (l *Tanh) Clone() Layer { return NewTanh(l.dim) }

// Conv2D is a 2-D convolution over channel-major flattened images, computed
// channel-major: each sample is lowered TRANSPOSED into colT (PatchLen x P,
// one row per (channel, ky, kx) tap, one column per output position), so
//
//	out (F x P) = W (F x PatchLen) * colT (PatchLen x P)
//
// lands directly in the sample's channel-major output row, with the dense
// filter matrix as the A operand of tensor.Gemm (and so on its packed SSE
// path). Backward re-lowers each sample from the cached input instead of
// keeping a batch-sized patch cache: dColT = W^T * dOut, scattered back in
// descending tap order, which is ascending output position for every input
// pixel. Every output, input-gradient and weight-gradient element sums the
// same terms in the same order as the row-major im2col formulation
// (Im2Col + GemmTB forward; GemmTA + Gemm + Col2Im backward); the terms the
// two formulations' zero-skips treat differently are exact ±0 additions to
// accumulators that start at +0, which change no bit (see the reduce-order
// contract in internal/tensor/naive.go). conv_oracle_test.go bit-compares
// the two.
// Parameters: filters (F x C*K*K, row-major) followed by biases (F).
type Conv2D struct {
	shape   tensor.ConvShape
	filters int
	taps    []convTap      // lowering plan, one entry per colT row; shared by clones
	lastIn  *tensor.Matrix // forward cache: Backward re-lowers from it

	outBuf, dInBuf *tensor.Matrix // scratch arena
	colT, dColT    tensor.Matrix  // one sample's lowered patches and their gradient
	wT             tensor.Matrix  // W^T, packed once per Backward
	nzPos          []int          // one filter's nonzero gradient positions
	nzVal          []float64      // ... and their values
}

// convTap is one (channel, ky, kx) row of the lowered patches: the output
// rectangle [ylo, yhi) x [xlo, xhi) whose input pixel under the tap lies
// inside the image, and the input index under output (ylo, xlo). Outside
// the rectangle the tap reads padding.
type convTap struct {
	ylo, yhi, xlo, xhi, src int
}

// tapSpan returns the output range [lo, hi) along one axis whose input
// coordinate o*stride + k - pad falls inside [0, n) for kernel offset k;
// lo >= hi when there is none.
func tapSpan(k, pad, stride, n, outN int) (lo, hi int) {
	off := k - pad
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if last := n - 1 - off; last >= 0 {
		hi = last/stride + 1
	}
	if hi > outN {
		hi = outN
	}
	return lo, hi
}

// NewConv2D creates a convolution from the given input shape to `filters`
// output channels with a square kernel.
func NewConv2D(channels, height, width, kernel, stride, pad, filters int) *Conv2D {
	s := tensor.ConvShape{
		Channels: channels, Height: height, Width: width,
		Kernel: kernel, Stride: stride, Pad: pad,
	}
	if s.OutHeight() < 1 || s.OutWidth() < 1 || filters < 1 {
		panic("nn: Conv2D produces empty output")
	}
	taps := make([]convTap, 0, s.PatchLen())
	for ch := 0; ch < channels; ch++ {
		for ky := 0; ky < kernel; ky++ {
			ylo, yhi := tapSpan(ky, pad, stride, height, s.OutHeight())
			for kx := 0; kx < kernel; kx++ {
				xlo, xhi := tapSpan(kx, pad, stride, width, s.OutWidth())
				if ylo >= yhi || xlo >= xhi {
					taps = append(taps, convTap{}) // the tap reads only padding
					continue
				}
				src := (ch*height+ylo*stride+ky-pad)*width + xlo*stride + kx - pad
				taps = append(taps, convTap{ylo, yhi, xlo, xhi, src})
			}
		}
	}
	return &Conv2D{shape: s, filters: filters, taps: taps}
}

// OutShape returns the (channels, height, width) of the output images.
func (c *Conv2D) OutShape() (channels, height, width int) {
	return c.filters, c.shape.OutHeight(), c.shape.OutWidth()
}

// InDim implements Layer.
func (c *Conv2D) InDim() int { return c.shape.Channels * c.shape.Height * c.shape.Width }

// OutDim implements Layer.
func (c *Conv2D) OutDim() int { return c.filters * c.shape.OutHeight() * c.shape.OutWidth() }

// ParamLen implements Layer.
func (c *Conv2D) ParamLen() int { return c.filters*c.shape.PatchLen() + c.filters }

// Init uses He initialization over the fan-in C*K*K.
func (c *Conv2D) Init(params []float64, r *rng.Rand) {
	fanIn := float64(c.shape.PatchLen())
	std := math.Sqrt(2 / fanIn)
	nw := c.filters * c.shape.PatchLen()
	for i := 0; i < nw; i++ {
		params[i] = std * r.NormFloat64()
	}
	for i := nw; i < len(params); i++ {
		params[i] = 0
	}
}

func (c *Conv2D) kernelMatrix(params []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: c.filters, Cols: c.shape.PatchLen(),
		Data: params[:c.filters*c.shape.PatchLen()]}
}

// scratch allocates the per-sample buffers on first use; their shapes
// depend only on the layer, never on the batch.
func (c *Conv2D) scratch() {
	if c.nzPos != nil {
		return
	}
	pl, p := c.shape.PatchLen(), c.shape.OutHeight()*c.shape.OutWidth()
	// lower writes only the in-image entries of colT, so its padding
	// entries keep the zeros they were allocated with.
	buf := make([]float64, 2*pl*p+pl*c.filters+p)
	c.colT = tensor.Matrix{Rows: pl, Cols: p, Data: buf[:pl*p]}
	c.dColT = tensor.Matrix{Rows: pl, Cols: p, Data: buf[pl*p : 2*pl*p]}
	c.wT = tensor.Matrix{Rows: pl, Cols: c.filters, Data: buf[2*pl*p : 2*pl*p+pl*c.filters]}
	c.nzPos, c.nzVal = make([]int, p), buf[2*pl*p+pl*c.filters:]
}

// lower writes one image's in-image patch entries into colT: each output
// row of a tap reads one contiguous run of an input row (a strided run when
// stride > 1).
func (c *Conv2D) lower(img []float64) {
	outW, stride := c.shape.OutWidth(), c.shape.Stride
	rowStep := stride * c.shape.Width
	p := c.colT.Cols
	for q, t := range c.taps {
		row := c.colT.Data[q*p : (q+1)*p]
		src := t.src
		for oy := t.ylo; oy < t.yhi; oy++ {
			dst := row[oy*outW+t.xlo : oy*outW+t.xhi]
			if stride == 1 {
				copy(dst, img[src:src+len(dst)])
			} else {
				for j := range dst {
					dst[j] = img[src+j*stride]
				}
			}
			src += rowStep
		}
	}
}

// scatter adds dColT into one image gradient: the adjoint of lower. Taps
// run in descending order, i.e. descending (ky, kx) within each channel,
// which delivers every pixel's contributions in ascending output position
// — the order Col2Im adds them in.
func (c *Conv2D) scatter(img []float64) {
	outW, stride := c.shape.OutWidth(), c.shape.Stride
	rowStep := stride * c.shape.Width
	p := c.dColT.Cols
	for q := len(c.taps) - 1; q >= 0; q-- {
		t := c.taps[q]
		row := c.dColT.Data[q*p : (q+1)*p]
		dst := t.src
		for oy := t.ylo; oy < t.yhi; oy++ {
			src := row[oy*outW+t.xlo : oy*outW+t.xhi]
			if stride == 1 {
				d := img[dst : dst+len(src)]
				for j, v := range src {
					d[j] += v
				}
			} else {
				for j, v := range src {
					img[dst+j*stride] += v
				}
			}
			dst += rowStep
		}
	}
}

// Forward implements Layer. Output rows are channel-major flattened images
// of shape (filters, outH, outW).
func (c *Conv2D) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	c.scratch()
	c.lastIn = in
	w := c.kernelMatrix(params)
	bias := params[c.filters*c.shape.PatchLen():]
	p := c.colT.Cols
	out := ensureMat(&c.outBuf, in.Rows, c.filters*p)
	for i := 0; i < in.Rows; i++ {
		c.lower(in.Row(i))
		dst := tensor.Matrix{Rows: c.filters, Cols: p, Data: out.Row(i)}
		tensor.Gemm(1, w, &c.colT, 0, &dst) // (F x P), beta=0 overwrites
		for f, b := range bias {
			orow := dst.Data[f*p : (f+1)*p]
			for pos := range orow {
				orow[pos] += b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	c.scratch()
	pl, p := c.colT.Rows, c.colT.Cols
	dW := dParams[:c.filters*pl]
	dB := dParams[c.filters*pl:]
	for f, wf := range c.kernelMatrix(params).Data {
		c.wT.Data[(f%pl)*c.filters+f/pl] = wf
	}
	dIn := ensureMat(&c.dInBuf, dOut.Rows, c.InDim())
	tensor.Zero(dIn.Data) // scatter adds into dIn rows
	colT := c.colT.Data
	for i := 0; i < dOut.Rows; i++ {
		c.lower(c.lastIn.Row(i))
		src := dOut.Row(i)
		for f := 0; f < c.filters; f++ {
			// dB sums every entry; dW skips the exact zeros, as GemmTA's
			// zero-coefficient skip did, so compact the nonzeros once and
			// run each tap's dot product branch-free over them, four taps
			// at a time to overlap the dependent additions.
			n := 0
			pos, val := c.nzPos[:p], c.nzVal[:p]
			for k, g := range src[f*p : (f+1)*p] {
				dB[f] += g
				if g != 0 {
					pos[n], val[n] = k, g
					n++
				}
			}
			pos, val = pos[:n], val[:n]
			dWf := dW[f*pl : (f+1)*pl]
			q := 0
			for ; q+4 <= pl; q += 4 {
				r0, r1 := colT[q*p:(q+1)*p], colT[(q+1)*p:(q+2)*p]
				r2, r3 := colT[(q+2)*p:(q+3)*p], colT[(q+3)*p:(q+4)*p]
				a0, a1, a2, a3 := dWf[q], dWf[q+1], dWf[q+2], dWf[q+3]
				for j, k := range pos {
					v := val[j]
					a0 += v * r0[k]
					a1 += v * r1[k]
					a2 += v * r2[k]
					a3 += v * r3[k]
				}
				dWf[q], dWf[q+1], dWf[q+2], dWf[q+3] = a0, a1, a2, a3
			}
			for ; q < pl; q++ {
				r, a := colT[q*p:(q+1)*p], dWf[q]
				for j, k := range pos {
					a += val[j] * r[k]
				}
				dWf[q] = a
			}
		}
		g := tensor.Matrix{Rows: c.filters, Cols: p, Data: src}
		tensor.Gemm(1, &c.wT, &g, 0, &c.dColT) // (PatchLen x P), beta=0 overwrites
		c.scatter(dIn.Row(i))
	}
	return dIn
}

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{shape: c.shape, filters: c.filters, taps: c.taps}
}

// MaxPool2x2 downsamples channel-major images by taking the max over
// non-overlapping 2x2 windows. Height and width must be even.
type MaxPool2x2 struct {
	channels, height, width int
	// argmax records, for every batch row and output element, the winning
	// input index: row i's entries live at [i*OutDim(), (i+1)*OutDim()).
	argmax []int

	outBuf, dInBuf *tensor.Matrix // scratch arena
}

// NewMaxPool2x2 creates the pooling layer for the given input image shape.
func NewMaxPool2x2(channels, height, width int) *MaxPool2x2 {
	if height%2 != 0 || width%2 != 0 {
		panic("nn: MaxPool2x2 requires even height and width")
	}
	return &MaxPool2x2{channels: channels, height: height, width: width}
}

// OutShape returns the output image shape.
func (m *MaxPool2x2) OutShape() (channels, height, width int) {
	return m.channels, m.height / 2, m.width / 2
}

// InDim implements Layer.
func (m *MaxPool2x2) InDim() int { return m.channels * m.height * m.width }

// OutDim implements Layer.
func (m *MaxPool2x2) OutDim() int { return m.channels * (m.height / 2) * (m.width / 2) }

// ParamLen implements Layer.
func (m *MaxPool2x2) ParamLen() int { return 0 }

// Init implements Layer (no parameters).
func (m *MaxPool2x2) Init([]float64, *rng.Rand) {}

// Forward implements Layer.
func (m *MaxPool2x2) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix {
	oh, ow := m.height/2, m.width/2
	out := ensureMat(&m.outBuf, in.Rows, m.channels*oh*ow)
	if need := in.Rows * m.OutDim(); cap(m.argmax) < need {
		m.argmax = make([]int, need)
	} else {
		m.argmax = m.argmax[:need]
	}
	for i := 0; i < in.Rows; i++ {
		src := in.Row(i)
		dst := out.Row(i)
		am := m.argmax[i*m.OutDim() : (i+1)*m.OutDim()]
		for ch := 0; ch < m.channels; ch++ {
			base := ch * m.height * m.width
			obase := ch * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := base + (2*oy)*m.width + 2*ox
					best := src[bestIdx]
					for _, d := range [3]int{1, m.width, m.width + 1} {
						if idx := base + (2*oy)*m.width + 2*ox + d; src[idx] > best {
							best, bestIdx = src[idx], idx
						}
					}
					o := obase + oy*ow + ox
					dst[o] = best
					am[o] = bestIdx
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2x2) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	dIn := ensureMat(&m.dInBuf, dOut.Rows, m.InDim())
	tensor.Zero(dIn.Data) // gradients scatter-add into the argmax winners
	for i := 0; i < dOut.Rows; i++ {
		src := dOut.Row(i)
		dst := dIn.Row(i)
		for o, idx := range m.argmax[i*m.OutDim() : (i+1)*m.OutDim()] {
			dst[idx] += src[o]
		}
	}
	return dIn
}

// Clone implements Layer.
func (m *MaxPool2x2) Clone() Layer { return NewMaxPool2x2(m.channels, m.height, m.width) }

// Residual wraps an inner layer stack F with a skip connection:
// out = in + F(in). Inner input and output dims must match, which is the
// identity-shortcut residual block of ResNet.
type Residual struct {
	inner []Layer
	// parameter slicing within the residual's own parameter block
	offsets []int
	total   int

	outBuf, dInBuf *tensor.Matrix // scratch arena
}

// NewResidual builds a residual block around the inner layers.
func NewResidual(inner ...Layer) *Residual {
	if len(inner) == 0 {
		panic("nn: Residual needs inner layers")
	}
	total := 0
	offsets := make([]int, len(inner))
	for i, l := range inner {
		if i > 0 && inner[i-1].OutDim() != l.InDim() {
			panic("nn: Residual inner dims mismatch")
		}
		offsets[i] = total
		total += l.ParamLen()
	}
	if inner[0].InDim() != inner[len(inner)-1].OutDim() {
		panic("nn: Residual requires matching in/out dims for the skip connection")
	}
	return &Residual{inner: inner, offsets: offsets, total: total}
}

// InDim implements Layer.
func (r *Residual) InDim() int { return r.inner[0].InDim() }

// OutDim implements Layer.
func (r *Residual) OutDim() int { return r.inner[len(r.inner)-1].OutDim() }

// ParamLen implements Layer.
func (r *Residual) ParamLen() int { return r.total }

// Init implements Layer.
func (r *Residual) Init(params []float64, rnd *rng.Rand) {
	for i, l := range r.inner {
		l.Init(params[r.offsets[i]:r.offsets[i]+l.ParamLen()], rnd)
	}
}

// Forward implements Layer.
func (r *Residual) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	cur := in
	for i, l := range r.inner {
		cur = l.Forward(params[r.offsets[i]:r.offsets[i]+l.ParamLen()], cur)
	}
	out := ensureMat(&r.outBuf, in.Rows, in.Cols)
	tensor.Add(out.Data, in.Data, cur.Data)
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	cur := dOut
	for i := len(r.inner) - 1; i >= 0; i-- {
		l := r.inner[i]
		cur = l.Backward(params[r.offsets[i]:r.offsets[i]+l.ParamLen()],
			cur, dParams[r.offsets[i]:r.offsets[i]+l.ParamLen()])
	}
	dIn := ensureMat(&r.dInBuf, dOut.Rows, dOut.Cols)
	tensor.Add(dIn.Data, dOut.Data, cur.Data) // skip path + inner path
	return dIn
}

// Clone implements Layer.
func (r *Residual) Clone() Layer {
	inner := make([]Layer, len(r.inner))
	for i, l := range r.inner {
		inner[i] = l.Clone()
	}
	return NewResidual(inner...)
}
