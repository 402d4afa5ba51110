package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Span kinds. Each is a layer boundary the benchmark records from outside
// the program: around calls into nn layers, the loss, the controller, and
// the engines' Run. The per-layer metric of a kind is the sum of its spans'
// self times (duration minus the part covered by child spans).
const (
	kArm       = iota // one lock-step engine Run (root)
	kAsyncRun         // one event-driven engine Run (root)
	kRound            // lock-step round: controller decision to next decision
	kNextRound        // Controller.NextRound
	kLossCheck        // evalLoss callback inside NextRound
	kConvFwd          // Conv2D.Forward on a training batch
	kConvBwd          // Conv2D.Backward
	kReLUFwd          // ReLU.Forward on a training batch
	kReLUBwd          // ReLU.Backward
	kPoolFwd          // MaxPool2x2.Forward on a training batch
	kPoolBwd          // MaxPool2x2.Backward
	kDenseFwd         // Dense.Forward on a training batch
	kDenseBwd         // Dense.Backward
	kResidual         // Residual.Forward/Backward (self = skip-add and copies)
	kLossGrad         // Loss.Eval with a gradient (training)
	kEvalFwd          // any layer forward or loss on an evaluation batch
	numKinds
)

var kindNames = [numKinds]string{
	kArm: "cluster.run", kAsyncRun: "cluster.async.run", kRound: "cluster.round", kNextRound: "core.next_round",
	kLossCheck: "core.loss_check",
	kConvFwd:   "nn.conv2d.fwd", kConvBwd: "nn.conv2d.bwd",
	kReLUFwd: "nn.relu.fwd", kReLUBwd: "nn.relu.bwd",
	kPoolFwd: "nn.maxpool.fwd", kPoolBwd: "nn.maxpool.bwd",
	kDenseFwd: "nn.dense.fwd", kDenseBwd: "nn.dense.bwd",
	kResidual: "nn.residual", kLossGrad: "nn.loss.grad", kEvalFwd: "nn.eval.fwd",
}

type span struct {
	kind       uint8
	parent     int32
	start, end int64 // ns since the tracer's origin
}

// tracer records the spans of ONE engine run. An engine run executes on a
// single goroutine (every arm pins ComputeWorkers to 1), so the tracer
// keeps a plain stack and needs no locks. Spans stay in memory until
// writeSpans.
type tracer struct {
	arm    string
	origin time.Time
	spans  []span
	stack  []int32

	trainRows int // rows of a training batch; larger batches are evaluation batches

	captureAt int           // training call at which convs capture operands (0 = never)
	convs     []*convRecord // one per conv position in the network
}

func newTracer(arm string, origin time.Time, trainRows int) *tracer {
	return &tracer{arm: arm, origin: origin, trainRows: trainRows,
		spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(kind int) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: uint8(kind), parent: parent,
		start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTotals accumulates self time and span counts per kind.
type layerTotals struct {
	self  [numKinds]float64 // seconds
	count [numKinds]int
}

func (lt *layerTotals) add(t *tracer) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		lt.self[s.kind] += float64(s.end-s.start-child[i]) / 1e9
		lt.count[s.kind]++
	}
}

// writeSpans appends the tracer's spans to w as CSV rows.
func (t *tracer) writeSpans(w *bufio.Writer) {
	for i, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d\n", t.arm, i, s.parent, kindNames[s.kind], s.start, s.end)
	}
}

func writeSpanFile(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "arm,id,parent,name,start_ns,end_ns")
	for _, t := range tracers {
		t.writeSpans(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// nn wrappers.
// ---------------------------------------------------------------------------

// tracedLayer wraps one nn.Layer in span recorders. Clones (one per
// simulated worker, plus the engine's evaluation model) share the tracer.
type tracedLayer struct {
	nn.Layer
	t             *tracer
	fwd, bwd      int
	conv          *convRecord // non-nil for Conv2D positions
	calls         int         // training forwards seen by this instance
	capturingNext bool        // the next Backward belongs to the captured step
}

func (l *tracedLayer) Forward(params []float64, in *tensor.Matrix) *tensor.Matrix {
	kind := l.fwd
	train := in.Rows <= l.t.trainRows
	if !train {
		kind = kEvalFwd
	}
	id := l.t.begin(kind)
	out := l.Layer.Forward(params, in)
	l.t.end(id)
	if c := l.conv; c != nil {
		if train {
			c.fwdRows += in.Rows
			l.calls++
			if l.calls == l.t.captureAt && c.in == nil {
				c.in = cloneMat(in)
				c.params = append([]float64(nil), params...)
				l.capturingNext = true
			}
		} else {
			c.evalRows += in.Rows
		}
	}
	return out
}

func (l *tracedLayer) Backward(params []float64, dOut *tensor.Matrix, dParams []float64) *tensor.Matrix {
	id := l.t.begin(l.bwd)
	dIn := l.Layer.Backward(params, dOut, dParams)
	l.t.end(id)
	if c := l.conv; c != nil {
		c.bwdRows += dOut.Rows
		if l.capturingNext {
			c.dOut = cloneMat(dOut)
			l.capturingNext = false
		}
	}
	return dIn
}

func (l *tracedLayer) Clone() nn.Layer {
	return &tracedLayer{Layer: l.Layer.Clone(), t: l.t, fwd: l.fwd, bwd: l.bwd, conv: l.conv}
}

// tracedLoss wraps the network loss: with a gradient it is a training
// span, without one an evaluation span.
type tracedLoss struct {
	nn.Loss
	t *tracer
}

func (l tracedLoss) Eval(out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix) float64 {
	kind := kLossGrad
	if dOut == nil || out.Rows > l.t.trainRows {
		kind = kEvalFwd
	}
	id := l.t.begin(kind)
	v := l.Loss.Eval(out, b, dOut)
	l.t.end(id)
	return v
}

// stampedLoss wraps the network loss and records when each evaluation
// (a call without a gradient) ends.
type stampedLoss struct {
	nn.Loss
	stamps *[]time.Time
}

func (l stampedLoss) Eval(out *tensor.Matrix, b data.Batch, dOut *tensor.Matrix) float64 {
	v := l.Loss.Eval(out, b, dOut)
	if dOut == nil {
		*l.stamps = append(*l.stamps, time.Now())
	}
	return v
}

func cloneMat(m *tensor.Matrix) *tensor.Matrix {
	return &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// convRecord is what the traced run learns about one conv position: its
// shape, how many rows passed through it, and operands captured from a
// real mid-run training step (input batch, gradient batch, parameters).
type convRecord struct {
	name    string
	shape   tensor.ConvShape
	filters int

	fwdRows, evalRows, bwdRows int

	in, dOut *tensor.Matrix
	params   []float64
}

// flopsPerRow is the flop count (two per multiply-add) of one per-sample
// Gemm call of the conv; forward issues one (GemmTB), backward two (GemmTA
// and Gemm), all of the same P x F x PatchLen size.
func (c *convRecord) flopsPerRow() float64 {
	p := float64(c.shape.OutHeight() * c.shape.OutWidth())
	return 2 * p * float64(c.filters) * float64(c.shape.PatchLen())
}

// netBuilder rebuilds a zoo architecture from public nn constructors. With
// a tracer, every layer and the loss are wrapped in span recorders bound to
// it; without one, the layers are plain and the loss appends the time of
// each evaluation call to stamps.
type netBuilder struct {
	t      *tracer
	stamps *[]time.Time
	convs  []*convRecord
}

func (b *netBuilder) wrap(l nn.Layer, fwd, bwd int) nn.Layer {
	if b.t == nil {
		return l
	}
	return &tracedLayer{Layer: l, t: b.t, fwd: fwd, bwd: bwd}
}

func (b *netBuilder) conv(name string, c, h, w, filters int) (nn.Layer, int, int) {
	conv := nn.NewConv2D(c, h, w, 3, 1, 1, filters)
	_, oh, ow := conv.OutShape()
	if b.t == nil {
		return conv, oh, ow
	}
	l := &tracedLayer{Layer: conv, t: b.t, fwd: kConvFwd, bwd: kConvBwd}
	l.conv = &convRecord{name: name, filters: filters, shape: tensor.ConvShape{
		Channels: c, Height: h, Width: w, Kernel: 3, Stride: 1, Pad: 1}}
	b.convs = append(b.convs, l.conv)
	return l, oh, ow
}

func (b *netBuilder) relu(dim int) nn.Layer { return b.wrap(nn.NewReLU(dim), kReLUFwd, kReLUBwd) }

func (b *netBuilder) pool(c, h, w int) (nn.Layer, int, int) {
	p := nn.NewMaxPool2x2(c, h, w)
	_, oh, ow := p.OutShape()
	return b.wrap(p, kPoolFwd, kPoolBwd), oh, ow
}

func (b *netBuilder) dense(in, out int) nn.Layer {
	return b.wrap(nn.NewDense(in, out), kDenseFwd, kDenseBwd)
}

func (b *netBuilder) loss() nn.Loss {
	if b.t == nil {
		return stampedLoss{Loss: nn.SoftmaxCrossEntropy{}, stamps: b.stamps}
	}
	return tracedLoss{Loss: nn.SoftmaxCrossEntropy{}, t: b.t}
}

// vgg mirrors nn.NewVGGNano layer for layer.
func (b *netBuilder) vgg(shape data.ImageShape, classes int) *nn.Network {
	conv1, h1, w1 := b.conv("conv1", shape.Channels, shape.Height, shape.Width, 8)
	pool1, h1p, w1p := b.pool(8, h1, w1)
	conv2, h2, w2 := b.conv("conv2", 8, h1p, w1p, 16)
	pool2, h2p, w2p := b.pool(16, h2, w2)
	flat := 16 * h2p * w2p
	return nn.NewNetwork(b.loss(), classes,
		conv1, b.relu(conv1.OutDim()), pool1,
		conv2, b.relu(conv2.OutDim()), pool2,
		b.dense(flat, 64), b.relu(64),
		b.dense(64, classes),
	)
}

// resnet mirrors nn.NewResNetNano layer for layer.
func (b *netBuilder) resnet(shape data.ImageShape, classes int) *nn.Network {
	stem, hs, ws := b.conv("stem", shape.Channels, shape.Height, shape.Width, 8)
	block := func(name string) nn.Layer {
		c1, _, _ := b.conv(name+"c1", 8, hs, ws, 8)
		c2, _, _ := b.conv(name+"c2", 8, hs, ws, 8)
		return b.wrap(nn.NewResidual(c1, b.relu(c1.OutDim()), c2), kResidual, kResidual)
	}
	b1 := block("b1")
	r1 := b.relu(stem.OutDim())
	b2 := block("b2")
	r2 := b.relu(stem.OutDim())
	pool, hp, wp := b.pool(8, hs, ws)
	return nn.NewNetwork(b.loss(), classes,
		stem, b.relu(stem.OutDim()), b1, r1, b2, r2, pool,
		b.dense(8*hp*wp, classes),
	)
}

// logistic mirrors nn.NewLogisticRegression.
func (b *netBuilder) logistic(dim, classes int) *nn.Network {
	return nn.NewNetwork(b.loss(), classes, b.dense(dim, classes))
}

// ---------------------------------------------------------------------------
// Controller wrapper.
// ---------------------------------------------------------------------------

// roundClock wraps a cluster.Controller. Untraced, it only timestamps each
// decision so that every round's real time per local step is known (a
// round runs from one decision's start to the next's);
// traced, it also records round, decision, and loss-check spans. It draws
// no randomness and returns the inner controller's decision unchanged.
type roundClock struct {
	inner cluster.Controller
	t     *tracer // nil when untraced

	active func(round int) int // active workers in a round

	last      time.Time
	lastSteps int
	roundID   int32
	steps     []stepTime // one per round
	samples   float64    // local-step samples: steps x active workers x batch
	batch     int
	rounds    int
}

func (c *roundClock) Name() string { return c.inner.Name() }

// closeRound records the ending round's real time per local step.
func (c *roundClock) closeRound(now time.Time) {
	if c.lastSteps > 0 {
		ms := float64(now.Sub(c.last)) / 1e6 / float64(c.lastSteps)
		c.steps = append(c.steps, stepTime{ms, c.lastSteps})
		if c.t != nil {
			c.t.end(c.roundID)
		}
	}
}

// NextRound closes the previous round at this decision's start, so every
// round's time includes its own decision and loss checks.
func (c *roundClock) NextRound(info cluster.RoundInfo, evalLoss func() float64) (int, float64) {
	now := time.Now()
	c.closeRound(now)
	var tau int
	var lr float64
	if c.t != nil {
		id := c.t.begin(kNextRound)
		tau, lr = c.inner.NextRound(info, func() float64 {
			lid := c.t.begin(kLossCheck)
			v := evalLoss()
			c.t.end(lid)
			return v
		})
		c.t.end(id)
	} else {
		tau, lr = c.inner.NextRound(info, evalLoss)
	}
	c.rounds++
	c.samples += float64(tau * c.active(info.Round) * c.batch)
	c.lastSteps = tau
	c.last = now
	if c.t != nil {
		c.roundID = c.t.begin(kRound)
	}
	return tau, lr
}

// finish closes the run's last round when Run returns.
func (c *roundClock) finish() { c.closeRound(time.Now()); c.lastSteps = 0 }

func allActive(m int) func(int) int { return func(int) int { return m } }
