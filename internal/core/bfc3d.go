package core

import (
	"math"

	"winrs/internal/conv"
	"winrs/internal/kahan"
	"winrs/internal/tensor"
)

// This file implements the paper's N-D extension (§3 Level 2) for k = 3:
// "in Partitioning, divide ∇Y ∈ R^{N×D1×…×Dk×OC} into Z segments; in
// Dimension Reduction, decompose ∇Y(z) into 1-D filters ∈ R^{N×Sk(z)×OC}".
// Concretely, the depth and height axes are flattened into the row axis of
// the 2-D machinery — every (o_d, o_h) pair is one 1-D filter — and the
// width axis carries the reduce-split F(n,r) kernels unchanged. Height- and
// depth-axis zero padding are both clipped (the Figure 7 optimization,
// applied per axis).

// Config3D is the adapted plan for one volumetric layer.
type Config3D struct {
	Params   conv.Params3D
	Pair     Pair
	ZTarget  int
	Segments []Segment // Row indices span the flattened (o_d·O_H + o_h) axis
	Hardware Hardware
}

// Z returns the realized segment count.
func (c *Config3D) Z() int { return len(c.Segments) }

// WorkspaceBytes returns the bucket workspace (Z−1 × sizeof(∇W)).
func (c *Config3D) WorkspaceBytes() int64 {
	return int64(c.Z()-1) * int64(c.Params.DWShape().Elems()) * 4
}

// Configure3D runs configuration adaptation for a 3-D layer: the kernel
// pair comes from (F_W, O_W) exactly as in 2-D; the segment count follows
// Algorithm 1 with 3-D block counts; the segment grid partitions the
// flattened (O_D·O_H) × O_W plane.
func Configure3D(p conv.Params3D, opts ...Option) (*Config3D, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := configOpts{hw: DefaultHardware}
	for _, f := range opts {
		f(&o)
	}
	p2 := flat2D(p)
	pr, err := SelectPair(p2, o.fp16)
	if err != nil {
		return nil, err
	}
	zHat := o.forceZ
	if zHat <= 0 {
		zHat = estimateZ3D(p, pr, o.hw)
	}
	// Segment-shape calculation on the flattened plane; padding rows are
	// interleaved (each o_h strip repeats per o_d), so the minimum segment
	// height guard uses p_H only.
	sh, sw := SegmentShape(p2, pr, zHat)
	cfg := &Config3D{Params: p, Pair: pr, ZTarget: zHat, Hardware: o.hw}
	cfg.Segments = layoutSegments(p2, pr, sh, sw)
	return cfg, nil
}

// flat2D folds the depth axis into the height axis for the planning
// helpers: the flattened output plane is (O_D·O_H) × O_W. Only the fields
// the planners read (channels, batch, output extents via IH/FH/PH back-
// derivation) need to be consistent.
func flat2D(p conv.Params3D) conv.Params {
	ohFlat := p.OD() * p.OH()
	return conv.Params{
		N:  p.N,
		IH: ohFlat + p.FH - 1 - 2*p.PH, // OH() == ohFlat
		IW: p.IW,
		FH: p.FH, FW: p.FW,
		IC: p.IC, OC: p.OC,
		PH: p.PH, PW: p.PW,
	}
}

// estimateZ3D mirrors Algorithm 1 with volumetric block counts.
func estimateZ3D(p conv.Params3D, pr Pair, hw Hardware) int {
	spatialOut := p.N * ceilDiv(p.OD()*p.OH(), 2) * ceilDiv(p.OW(), 2)
	spatialIn := p.N * ceilDiv(p.ID*p.IH, 2) * ceilDiv(p.IW, 2)
	b0 := ceilDiv(p.OC, 64) * ceilDiv(spatialOut, 32)
	b1 := ceilDiv(p.IC, 64) * ceilDiv(spatialIn, 32)
	bn, bm := pr.Fast.CacheBlock(false)
	b2 := ceilDiv(p.OC, bn) * ceilDiv(p.IC, bm) *
		ceilDiv(p.FD*p.FH*p.FW, pr.Fast.N)

	zHat := float64(b0+b1) / (1.45 * float64(b2))
	k := latencyBlocksPerSM(pr.Fast.Intensity(false))
	b2Full := k * float64(hw.NSM)
	dwBytes := int64(p.DWShape().Elems()) * 4
	dataBytes := int64(p.XShape().Elems()+p.DYShape().Elems())*4 + dwBytes
	zMax := 1 + int(2*dataBytes/maxI64(1, dwBytes))
	if zMax > 128 {
		zMax = 128
	}
	if zHat < 2 && float64(b2) >= b2Full {
		return 1
	}
	z1 := ceilDiv(int(2*b2Full), b2)
	z2 := int(math.Ceil(float64(p.FLOPs()) / 1e9))
	z := int(zHat)
	if z < 1 {
		z = 1
	}
	z = minInt(z, z1, z2, p.N*p.OD()*p.OH()*p.OW()/512)
	if z < 1 {
		z = 1
	}
	pp := 1 << bits(z)
	if pp > 8 {
		pp = 8
	}
	z = pp * ceilDiv(z, pp)
	if z > zMax {
		z = zMax
	}
	if z < 1 {
		z = 1
	}
	return z
}

// Execute3D runs the fused FP32 3-D pipeline: tasks are
// (segment, f_d, f_h, width-tile) units writing disjoint bucket regions.
func Execute3D(cfg *Config3D, x, dy *tensor.Float325) *tensor.Float325 {
	p := cfg.Params
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("core: Execute3D operand shape mismatch")
	}
	elems := p.DWShape().Elems()
	buckets := make([][]float32, cfg.Z())
	for i := range buckets {
		buckets[i] = make([]float32, elems)
	}
	// Per-segment unit counts as a prefix table; global indices decode
	// arithmetically, so no task slice is materialized.
	off := make([]int, len(cfg.Segments)+1)
	for si, seg := range cfg.Segments {
		off[si+1] = off[si] + p.FD*p.FH*(p.FW/seg.K.N)
	}
	execPool().RunFunc(off[len(off)-1], 0, func(lo, hi int) {
		si := 0
		for i := lo; i < hi; i++ {
			for i >= off[si+1] {
				si++ // i only grows, so si scans forward
			}
			seg := cfg.Segments[si]
			jTiles := p.FW / seg.K.N
			local := i - off[si]
			fd := local / (p.FH * jTiles)
			fh := local / jTiles % p.FH
			segmentTile3D(p, seg, fd, fh, local%jTiles, x, dy, buckets[si])
		}
	})

	dw := tensor.NewFloat325(p.DWShape())
	if len(buckets) == 1 {
		copy(dw.Data, buckets[0])
		return dw
	}
	kahan.ReduceBuckets(dw.Data, buckets)
	return dw
}

// BackwardFilter3D is the one-call volumetric API.
func BackwardFilter3D(p conv.Params3D, x, dy *tensor.Float325, opts ...Option) (*tensor.Float325, error) {
	cfg, err := Configure3D(p, opts...)
	if err != nil {
		return nil, err
	}
	return Execute3D(cfg, x, dy), nil
}

// segmentTile3D is the 2-D unit with the flattened (o_d, o_h) row axis
// and two clipped padding axes, run as per-tile rank-1 updates with the
// base panel.
func segmentTile3D(p conv.Params3D, seg Segment, fd, fh, j int,
	x, dy *tensor.Float325, bucket []float32) {
	k := seg.K
	tr := k.Transform().Balanced()
	gPlan, dtPlan := tr.PanelPlans()
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC
	oh := p.OH()

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*oc*ic)
	wRaw := growF32(&s.wRaw, r*oc)
	wHat := growF32(&s.wHatF, alpha*oc)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	colBase := j * n
	dwShape := p.DWShape()

	for row := seg.Row0; row < seg.Row1; row++ {
		od, oyh := row/oh, row%oh
		id := od + fd - p.PD
		if id < 0 || id >= p.ID {
			continue // depth-axis clipping
		}
		ih := oyh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue // height-axis clipping
		}
		for ow0 := seg.Col0; ow0 < seg.Col1; ow0 += r {
			for nb := 0; nb < p.N; nb++ {
				for u := 0; u < r; u++ {
					base := dy.Shape.Index(nb, od, oyh, ow0+u, 0)
					copy(wRaw[u*oc:(u+1)*oc], dy.Data[base:base+oc])
				}
				gPlan.MulPanel(wRaw, wHat, r, oc)
				for u := 0; u < alpha; u++ {
					iw := ow0 + colBase + u - p.PW
					dst := xRaw[u*ic : (u+1)*ic]
					if iw < 0 || iw >= p.IW {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					base := x.Shape.Index(nb, id, ih, iw, 0)
					copy(dst, x.Data[base:base+ic])
				}
				dtPlan.MulPanel(xRaw, xHat, alpha, ic)
				ewmPanels(v, wHat, xHat, alpha, oc, ic)
			}
		}
	}

	// Output transform into the (oc, fd, fh, colBase+i, ic) bucket slots.
	acc := growF32(&s.acc, alpha)
	for a := 0; a < oc; a++ {
		for b := 0; b < ic; b++ {
			for e := 0; e < alpha; e++ {
				acc[e] = v[(e*oc+a)*ic+b]
			}
			for i := 0; i < n; i++ {
				var s float32
				for e := 0; e < alpha; e++ {
					s += float32(tr.A.At(e, i)) * acc[e]
				}
				bucket[dwShape.Index(a, fd, fh, colBase+i, b)] += s
			}
		}
	}
}
