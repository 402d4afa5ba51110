package tensor

// The *Naive kernels are the canonical reference implementations the blocked
// kernels in blocked.go must match bit for bit. They define the canonical
// reduce order: every output element starts from its beta-scaled destination
// (beta == 0 overwrites) and accumulates terms in ascending reduction index,
// one addition per term; terms whose A coefficient is exactly zero are
// skipped in the axpy-form kernels (Gemm, GemmTA, GemvT). Parity tests and
// cmd/bench compare against these, so they must stay byte-for-byte what the
// repository shipped before the blocked rewrite.
//
// The zero-coefficient skip is bit-neutral whenever the other operand is
// finite and the accumulator does not start at -0. A skipped term would be
// an exact ±0; adding ±0 returns any nonzero accumulator unchanged, and
// +0 + ±0 = +0. An accumulator that starts at +0 (every beta == 0 product)
// never becomes -0, because round-to-nearest yields -0 only from -0 + -0.
// So a caller may orient a product to skip on either operand, e.g. put a
// dense weight matrix in A and a ReLU-masked activation in B, and get the
// same bits as the opposite orientation, as long as it starts from +0 or
// from a destination free of -0. What does differ is NaN/Inf propagation:
// an exact zero times ±Inf or NaN is NaN when the term is computed and
// absent when it is skipped. nn.Conv2D relies on this.

// GemvNaive is the reference Gemv: y = alpha*A*x + beta*y.
func GemvNaive(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("tensor: Gemv dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		if beta == 0 {
			y[i] = alpha * s
		} else {
			y[i] = alpha*s + beta*y[i]
		}
	}
}

// GemvTNaive is the reference GemvT: y = alpha*A^T*x + beta*y.
func GemvTNaive(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("tensor: GemvT dimension mismatch")
	}
	if beta == 0 {
		Zero(y)
	} else if beta != 1 {
		for j := range y {
			y[j] *= beta
		}
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		ax := alpha * x[i]
		if ax == 0 {
			continue
		}
		for j, v := range row {
			y[j] += ax * v
		}
	}
}

// GemmNaive is the reference Gemm: C = alpha*A*B + beta*C.
func GemmNaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("tensor: Gemm dimension mismatch")
	}
	if beta == 0 {
		Zero(c.Data)
	} else if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		arow := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := alpha * arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += aik * bv
			}
		}
	}
}

// GemmTANaive is the reference GemmTA: C = alpha*A^T*B + beta*C.
func GemmTANaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("tensor: GemmTA dimension mismatch")
	}
	if beta == 0 {
		Zero(c.Data)
	} else if beta != 1 {
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			aik := alpha * av
			if aik == 0 {
				continue
			}
			crow := c.Row(i)
			for j, bv := range brow {
				crow[j] += aik * bv
			}
		}
	}
}

// GemmTBNaive is the reference GemmTB: C = alpha*A*B^T + beta*C.
func GemmTBNaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tensor: GemmTB dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			s := Dot(arow, b.Row(j))
			if beta == 0 {
				crow[j] = alpha * s
			} else {
				crow[j] = alpha*s + beta*crow[j]
			}
		}
	}
}
