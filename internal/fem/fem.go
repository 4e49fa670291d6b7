// Package fem implements the in-house 2D linear-elastic finite-element
// solver (plane stress by default, plane strain optional) that stands
// in for the paper's commercial FEM golden reference (COMSOL). See
// DESIGN.md §2 for why a 2D golden preserves the behaviour under study.
//
// Base solver: uniform structured mesh of 4-node quadrilaterals, one
// blended material per element (Reuss area-fraction mixing at the
// circular TSV interfaces), thermal eigenstrains relative to the
// substrate (so the substrate's stress-free expansion is subtracted
// analytically and the far field decays to zero), Dirichlet boundary
// carrying the analytic single-TSV far field, preconditioned
// conjugate-gradient solution, and element-center stress recovery with
// bilinear sampling.
//
// Production golden (SolveSubmodel): Richardson extrapolation across a
// mesh pair removes the first-order interface-band error globally, and
// polar-meshed submodel patches around each TSV — whose rings coincide
// exactly with the body/liner and liner/substrate interfaces — provide
// near-interface accuracy (<1% von Mises on the paper's critical ring).
package fem

import (
	"fmt"
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/lame"
	"tsvstress/internal/material"
	"tsvstress/internal/mesh"
	"tsvstress/internal/sparse"
	"tsvstress/internal/tensor"
)

// Options configures the solver. The zero value selects sensible
// defaults for the paper's experiments.
type Options struct {
	// H is the target element size in µm (default 0.25).
	H float64
	// SubSamples is the per-axis material subsampling used for
	// area-fraction blending at circular interfaces (default 4).
	SubSamples int
	// Tol is the CG relative-residual target (default 1e-8).
	Tol float64
	// MaxIter caps CG iterations (default 20·√DOF + 2000).
	MaxIter int
	// Omega is the SSOR relaxation factor (default 1.5).
	Omega float64
	// Plane selects plane stress (default, the paper's device-layer
	// setting) or plane strain (deep cross-sections).
	Plane material.Plane
	// BoundaryDisp, when set, prescribes the Dirichlet boundary
	// displacement field instead of the default analytic single-TSV
	// far-field superposition, so a local solve can be driven from an
	// outer solution (submodeling; the polar patches of SolveSubmodel
	// take the same hook through PolarPatchOptions).
	BoundaryDisp func(p geom.Point) (ux, uy float64)
}

func (o Options) withDefaults() Options {
	if o.H <= 0 {
		o.H = 0.25
	}
	if o.SubSamples <= 0 {
		o.SubSamples = 4
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.Omega <= 0 {
		o.Omega = 1.5
	}
	return o
}

// Stats reports solver diagnostics.
type Stats struct {
	DOF        int
	Iterations int
	Residual   float64
}

// Result is a solved stress field. It is immutable and safe for
// concurrent sampling.
type Result struct {
	Grid       *mesh.Grid
	U          []float64       // nodal displacements, 2 per node (µm)
	CellStress []tensor.Stress // element-center stresses (MPa)
	Stats      Stats
}

// DomainFor returns a solve domain covering both the placement (with
// its TSV radii) and the region of interest, expanded by margin.
func DomainFor(pl *geom.Placement, st material.Structure, region geom.Rect, margin float64) geom.Rect {
	b := pl.Bounds(st.RPrime)
	if region.Valid() && region.Area() > 0 {
		b = b.Union(region)
	}
	return b.Expand(margin)
}

// Solve runs the FEM on the placement over the given domain.
func Solve(pl *geom.Placement, st material.Structure, domain geom.Rect, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("fem: %w", err)
	}
	g, err := mesh.New(domain, opt.H)
	if err != nil {
		return nil, fmt.Errorf("fem: %w", err)
	}
	if opt.BoundaryDisp == nil {
		// With the analytic far-field boundary every TSV must be well
		// inside the domain; submodel patches (custom BoundaryDisp)
		// legitimately clip neighbouring TSVs instead.
		for _, t := range pl.TSVs {
			if !domain.Contains(t.Center) {
				return nil, fmt.Errorf("fem: TSV at %v outside solve domain %+v", t.Center, domain)
			}
		}
	}

	em := buildElementMaterials(g, pl, st, opt.SubSamples, opt.Plane)

	// Boundary condition: Dirichlet with the analytical far field. Each
	// TSV's single-TSV perturbation displacement decays as Bs/r; its
	// superposition is exact up to the interaction correction, which at
	// the domain edge is smaller by another (R′/d)² factor. This keeps
	// domain-truncation error far below the modeling errors under study
	// (a plain u = 0 boundary biases near-TSV stress by
	// ~(r/R_boundary)², which is not acceptable here).
	single, err := lame.SolvePlane(st, opt.Plane)
	if err != nil {
		return nil, fmt.Errorf("fem: %w", err)
	}
	nn := g.NumNodes()
	ub := make([]float64, 2*nn) // prescribed values on fixed dofs
	free := make([]int, 2*nn)   // full dof -> reduced index or -1
	nFree := 0
	for j := 0; j <= g.NY; j++ {
		for i := 0; i <= g.NX; i++ {
			n := g.NodeID(i, j)
			if g.IsBoundaryNode(i, j) {
				free[2*n] = -1
				free[2*n+1] = -1
				p := g.NodeXY(i, j)
				if opt.BoundaryDisp != nil {
					ub[2*n], ub[2*n+1] = opt.BoundaryDisp(p)
				} else {
					for _, t := range pl.TSVs {
						rel := p.Sub(t.Center)
						r := rel.Norm()
						if r <= st.RPrime {
							continue // cannot happen for sane domains
						}
						ur := single.Bs / r // perturbation part of u(r)
						ub[2*n] += ur * rel.X / r
						ub[2*n+1] += ur * rel.Y / r
					}
				}
			} else {
				free[2*n] = nFree
				free[2*n+1] = nFree + 1
				nFree += 2
			}
		}
	}
	if nFree == 0 {
		return nil, fmt.Errorf("fem: no free DOFs (domain too small for h=%g)", opt.H)
	}

	q := newQuad(g.DX, g.DY)
	builder := sparse.NewBuilder(nFree)
	rhs := make([]float64, nFree)

	var ke [8][8]float64
	var fe [8]float64
	var dofs [8]int
	for e := 0; e < g.NumElems(); e++ {
		q.stiffness(&em.D[e], &ke)
		q.thermalLoad(&em.TV[e], &fe)
		nodes := g.ElemNodes(e)
		for a := 0; a < 4; a++ {
			dofs[2*a] = 2 * nodes[a]
			dofs[2*a+1] = 2*nodes[a] + 1
		}
		for a := 0; a < 8; a++ {
			ra := free[dofs[a]]
			if ra < 0 {
				continue
			}
			rhs[ra] += fe[a]
			for b := 0; b < 8; b++ {
				rb := free[dofs[b]]
				if rb < 0 {
					// Prescribed dof: move its contribution to the RHS.
					if g := ub[dofs[b]]; g != 0 {
						rhs[ra] -= ke[a][b] * g
					}
					continue
				}
				builder.Add(ra, rb, ke[a][b])
			}
		}
	}
	mat := builder.Build()

	prec, err := sparse.NewSSOR(mat, opt.Omega)
	if err != nil {
		return nil, fmt.Errorf("fem: %w", err)
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 20*int(math.Sqrt(float64(nFree))) + 2000
	}
	x := make([]float64, nFree)
	res, err := sparse.CG(mat, rhs, x, sparse.CGOptions{Tol: opt.Tol, MaxIter: maxIter, Prec: prec})
	if err != nil {
		return nil, fmt.Errorf("fem: %w", err)
	}

	// Expand to the full displacement vector, restoring prescribed
	// boundary values.
	u := make([]float64, 2*nn)
	for d, r := range free {
		if r >= 0 {
			u[d] = x[r]
		} else {
			u[d] = ub[d]
		}
	}

	// Element-center stress recovery: σ = D·(B·ue) − tv.
	cs := make([]tensor.Stress, g.NumElems())
	var ue [8]float64
	for e := 0; e < g.NumElems(); e++ {
		nodes := g.ElemNodes(e)
		for a := 0; a < 4; a++ {
			ue[2*a] = u[2*nodes[a]]
			ue[2*a+1] = u[2*nodes[a]+1]
		}
		cs[e] = q.stressAtCenter(&em.D[e], &em.TV[e], &ue)
	}

	return &Result{
		Grid:       g,
		U:          u,
		CellStress: cs,
		Stats:      Stats{DOF: nFree, Iterations: res.Iterations, Residual: res.Residual},
	}, nil
}

// StressAt samples the stress field at p, in MPa, by bilinear
// interpolation of element-center stresses (clamped at the domain
// edge).
func (r *Result) StressAt(p geom.Point) tensor.Stress {
	cells, w := r.Grid.CellInterp(p)
	var s tensor.Stress
	for k := range cells {
		s = s.Add(r.CellStress[cells[k]].Scale(w[k]))
	}
	return s
}

// DisplacementAt samples the perturbation displacement in µm (relative
// to the substrate's free thermal expansion) at p via the element shape
// functions.
func (r *Result) DisplacementAt(p geom.Point) (ux, uy float64) {
	e, xi, eta, _ := r.Grid.Locate(p)
	nodes := r.Grid.ElemNodes(e)
	n := shapeN(xi, eta)
	for a := 0; a < 4; a++ {
		ux += n[a] * r.U[2*nodes[a]]
		uy += n[a] * r.U[2*nodes[a]+1]
	}
	return ux, uy
}
