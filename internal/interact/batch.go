//tsvlint:hotpath

package interact

import (
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/potential"
	"tsvstress/internal/tensor"
)

// VictimRounds packs every aggressor→victim round sharing one victim
// TSV into an aggregated per-harmonic form for tile-batched Stage II
// evaluation.
//
// Every round of a victim sees the same point geometry (relative
// vector, its norm r, the polar angle φ and the decay base R′/r); a
// round only differs by its axis angle ψ and its pitch-dependent
// coefficients a_m, b_m. Writing the local angle as θ = φ − ψ and
// expanding cos(mθ) and sin(mθ), the sum over rounds factorizes:
//
//	Σ_r a_m^r cos(mθ_r) = cos(mφ) Σ_r a_m^r cos(mψ_r) + sin(mφ) Σ_r a_m^r sin(mψ_r)
//
// so the four per-harmonic aggregates Σ a cos(mψ), Σ a sin(mψ),
// Σ b cos(mψ), Σ b sin(mψ) are point independent and computed once at
// pack time. AccumulateTile then costs O(MMax) per point regardless of
// how many rounds the victim participates in — the structural speedup
// that makes dense full-chip Stage II tractable.
//
// Inside the victim (liner ring and body) the transmitted-minus-incident
// field of a round is, per harmonic, its incident coefficient
// s_m = b̂_{m−2} times a unit radial profile P_m(ρ) that every round
// shares (Model.netLiner, Model.netCore), so the same identity
// aggregates it into C_m = Σ_r s_m^r cos(mψ_r) and
// S_m = Σ_r s_m^r sin(mψ_r); see interiorAt.
//
// A VictimRounds is immutable after Pack and safe for concurrent use.
type VictimRounds struct {
	mo         *Model // shared interior unit profiles
	vicX, vicY float64
	rPrime     float64
	nm         int // harmonics (MMax−1)
	// Aggregated incident coefficients for interiorAt, each of length
	// nm (index m−2): ci[i] = Σ_r s_i^r cos(mψ_r), si[i] = Σ_r s_i^r
	// sin(mψ_r). Backed by one slab.
	ci, si []float64
	evs    []PairEval // per-round path for the victim center

	// SoA complex-Horner state for AccumulateTile (see the derivation
	// there). horner is step-major, one hornerStep per harmonic index
	// i: [γRe, γIm, (i+2)·γRe, (i+2)·γIm, βRe, βIm] with
	// γ_i = ca_i − i·sa_i and β_i = cb_i − i·sb_i, where
	// ca_i = Σ_r a_i^r cos(mψ_r), sa_i = Σ_r a_i^r sin(mψ_r) and cb/sb
	// likewise for b, so one Horner step streams a single 48-byte run
	// and indexes with one bounds check at most.
	horner []hornerStep
	// trunc[k] is the smallest d² (µm²) at which evaluating the Horner
	// polynomials with coefficient indices 0…k only keeps the dropped
	// tail below truncTolMPa per stress component (trunc[nm−1] = 0, no
	// tail). Non-increasing in k by construction.
	trunc []float64
	// rp2Guard is R′²·(1+guard): below it the exterior/interior
	// classification recomputes math.Hypot so it is bit-identical to
	// PairEval.StressAt's (σθθ jumps across Γ1, so a 1-ulp disagreement
	// would not be a round-off-level diff).
	rp2Guard float64
	rp2      float64 // R′²
	rpInv2   float64 // 1/R′²
}

// hornerStride is the number of packed lanes per harmonic in the
// step-major Horner slab.
const hornerStride = 6

// hornerStep is one harmonic's packed coefficient run.
type hornerStep [hornerStride]float64

// truncTolMPa bounds the per-victim stress-component error (MPa) of the
// adaptive harmonic truncation AccumulateTile applies to far points.
// With the default 25 µm cutoffs a point accumulates a few dozen
// victims, keeping the summed truncation error two orders of magnitude
// under the 1e-9 MPa parity budget. The bound is absolute, so victims
// with larger coefficients (hotter loads) automatically keep more
// harmonics.
const truncTolMPa = 2e-12

// PackRounds builds the aggregated view over rounds, which must all
// share one victim center (as the per-victim lists built by the
// analyzer do). Degenerate rounds (non-positive pitch) contribute zero
// and are dropped. Returns nil when no evaluable round remains.
//
// When every round is evaluable the pack aliases evs instead of
// copying it: callers must not mutate the slice afterwards.
func PackRounds(evs []PairEval) *VictimRounds {
	kept := evs
	for k := range evs {
		if !(evs[k].d > 0) {
			kept = make([]PairEval, 0, len(evs))
			for _, pe := range evs {
				if pe.d > 0 {
					kept = append(kept, pe)
				}
			}
			break
		}
	}
	if len(kept) == 0 {
		return nil
	}
	mo := kept[0].model
	nm := len(kept[0].a)
	slab := make([]float64, 2*nm)
	vr := &VictimRounds{
		mo:     mo,
		vicX:   kept[0].vic.X,
		vicY:   kept[0].vic.Y,
		rPrime: kept[0].rPrime,
		nm:     nm,
		ci:     slab[:nm],
		si:     slab[nm:],
		evs:    kept,
	}
	// The exterior aggregates are only read while packing the Horner
	// slab.
	ext := make([]float64, 4*nm)
	ca, sa, cb, sb := ext[0*nm:1*nm], ext[1*nm:2*nm], ext[2*nm:3*nm], ext[3*nm:4*nm]
	for k := range kept {
		pe := &kept[k]
		// cos/sin(mψ) recurrence over the round's axis angle ψ,
		// starting at m = 2.
		c1, s1 := pe.axX, pe.axY
		cm := c1*c1 - s1*s1
		sm := 2 * s1 * c1
		for i := 0; i < nm; i++ {
			inc := potential.IncidentCoeff(i, mo.Lame.K, pe.rPrime, pe.d)
			ca[i] += pe.a[i] * cm
			sa[i] += pe.a[i] * sm
			cb[i] += pe.b[i] * cm
			sb[i] += pe.b[i] * sm
			vr.ci[i] += inc * cm
			vr.si[i] += inc * sm
			cm, sm = cm*c1-sm*s1, sm*c1+cm*s1
		}
	}
	vr.packHorner(ca, sa, cb, sb)
	return vr
}

// packHorner folds the four exterior aggregate lanes into the
// step-major complex coefficient slab AccumulateTile streams, and
// solves the per-start truncation thresholds.
func (vr *VictimRounds) packHorner(ca, sa, cb, sb []float64) {
	nm := vr.nm
	vr.horner = make([]hornerStep, nm)
	for i := 0; i < nm; i++ {
		fm := float64(i + 2)
		vr.horner[i] = hornerStep{
			ca[i], -sa[i],
			fm * ca[i], -fm * sa[i],
			cb[i], -sb[i],
		}
	}
	vr.rp2 = vr.rPrime * vr.rPrime
	vr.rpInv2 = 1 / vr.rp2
	vr.rp2Guard = vr.rp2 * (1 + 1e-9)

	// Tail magnitude of harmonic index i at decay base inv = R′/r ≤ 1:
	// the polar components are bounded by inv^m·((2+m)·A_i + B_i·inv²)
	// with A_i = |(ca_i, sa_i)|, B_i = |(cb_i, sb_i)| (each aggregate
	// pair is a single sinusoid in φ), and the polar→Cartesian rotation
	// at most adds |σrt| to max(|σrr|, |σθθ|). wts[i] is the resulting
	// per-component Cartesian bound coefficient of inv^m.
	wts := make([]float64, nm)
	for i := 0; i < nm; i++ {
		fm := float64(i + 2)
		ai := math.Hypot(ca[i], sa[i])
		bi := math.Hypot(cb[i], sb[i])
		wts[i] = (2+2*fm)*ai + 2*bi
	}
	//tsvlint:ignore hotpath per-victim setup, not the per-point lane sweep: runs once per rebuild
	tail := func(k int, inv float64) float64 {
		s := 0.0
		//tsvlint:ignore hotpath bisection seed once per (victim, k), not per point
		p := math.Pow(inv, float64(k+3)) // inv^m at i = k+1
		for i := k + 1; i < nm; i++ {
			s += wts[i] * p
			p *= inv
		}
		return s
	}
	vr.trunc = make([]float64, nm)
	for k := 0; k < nm-1; k++ {
		if tail(k, 1) <= truncTolMPa {
			// Even touching the footprint the tail is negligible.
			vr.trunc[k] = 0
			continue
		}
		// tail(k, ·) is increasing in inv; bisect for the largest inv
		// still within tolerance and convert to a d² threshold.
		lo, hi := 0.0, 1.0
		for it := 0; it < 64; it++ {
			mid := 0.5 * (lo + hi)
			if tail(k, mid) <= truncTolMPa {
				lo = mid
			} else {
				hi = mid
			}
		}
		r := vr.rPrime / lo
		vr.trunc[k] = r * r
	}
	// trunc[nm-1] stays 0: the full series is always admissible, which
	// also terminates the start-index scan.
}

// NumRounds returns the number of packed (non-degenerate) rounds.
func (vr *VictimRounds) NumRounds() int { return len(vr.evs) }

// Vic returns the shared victim center.
func (vr *VictimRounds) Vic() geom.Point { return geom.Pt(vr.vicX, vr.vicY) }

// interiorAt returns the summed stress of all packed rounds at a point
// inside the victim footprint (r < R′): the transmitted field minus the
// aggressors' incident field, as Model.PairStress defines it per round.
//
// With ρ = r/R′ and θ_r = φ − ψ_r, round r contributes per harmonic
// s_m^r·P_m(ρ)·cos(mθ_r) to σrr and σθθ and s_m^r·P_m(ρ)·sin(mθ_r) to
// σrθ, where P_m are the unit liner (ρ ≥ k) or body (ρ < k) profiles
// minus the unit incident profile. Expanding θ_r as for the exterior
// series leaves the point-independent aggregates C_m = ci, S_m = si:
//
//	Σ_r s_m^r cos(mθ_r) = cos(mφ)·C_m + sin(mφ)·S_m
//	Σ_r s_m^r sin(mθ_r) = sin(mφ)·C_m − cos(mφ)·S_m
//
// so a point costs O(MMax) with iterated powers of ρ and a cos/sin(mφ)
// recurrence, whatever the round count, and one polar→Cartesian
// rotation. ρ and the liner/body split are computed as PairStress
// computes them. At the exact center PairStress evaluates each round
// at a tiny offset along its own axis, which does not aggregate; that
// single point keeps the per-round path.
//
//tsvlint:allocfree
func (vr *VictimRounds) interiorAt(px, py float64) tensor.Stress {
	relX := px - vr.vicX
	relY := py - vr.vicY
	r := math.Hypot(relX, relY)
	if r == 0 {
		p := geom.Pt(px, py)
		var s tensor.Stress
		for k := range vr.evs {
			s = s.Add(vr.evs[k].StressAt(p))
		}
		return s
	}
	rho := r / vr.rPrime
	// The body has no negative-power terms (a_{−m} = b_{−m−2} = 0):
	// zero inv keeps them at zero without overflowing ρ^{−m} near the
	// center.
	units, inv := vr.mo.netLiner, 1/rho
	if rho < vr.mo.Struct.K() {
		units, inv = vr.mo.netCore, 0
	}
	units = units[:vr.nm]
	ci, si := vr.ci[:len(units)], vr.si[:len(units)]
	pp2 := 1.0      // ρ^{m−2}, starting at m = 2
	pp := rho * rho // ρ^m
	pn := inv * inv // ρ^{−m}
	pn2 := pn * pn  // ρ^{−m−2}
	cphi, sphi := relX/r, relY/r
	cm := cphi*cphi - sphi*sphi
	sm := 2 * sphi * cphi
	var rr, tt, rt float64
	for i := range units {
		c := &units[i]
		fm := float64(i + 2)
		ap, an := c.APos*pp, c.ANeg*pn
		bp, bn := c.BPos*pp2, c.BNeg*pn2
		gc := cm*ci[i] + sm*si[i] // Σ_r s cos(mθ_r)
		gs := sm*ci[i] - cm*si[i] // Σ_r s sin(mθ_r)
		rr += ((2-fm)*ap + (2+fm)*an - bp - bn) * gc
		tt += ((2+fm)*ap + (2-fm)*an + bp + bn) * gc
		rt += (fm*(ap+an) + bp - bn) * gs
		pp *= rho
		pp2 *= rho
		pn *= inv
		pn2 *= inv
		cm, sm = cm*cphi-sm*sphi, sm*cphi+cm*sphi
	}
	c2, s2, cs := cphi*cphi, sphi*sphi, cphi*sphi
	return tensor.Stress{
		XX: rr*c2 - 2*rt*cs + tt*s2,
		YY: rr*s2 + 2*rt*cs + tt*c2,
		XY: (rr-tt)*cs + rt*(c2-s2),
	}
}

// AccumulateTile adds this victim's interactive stress into the tile
// accumulator lanes for every point with squared distance ≤ pd2 from
// the victim center — the SoA form of summing PairEval.StressAt over
// the packed rounds at each point.
//
// It evaluates the aggregated harmonic sum (see VictimRounds) through a
// complex reformulation that needs no radial norm and exactly one
// division per contributing point. With z = relX + i·relY and w = R′·z/|z|² (so |w| = R′/r and
// arg w = φ), the aggregated series collapses to two complex
// polynomials in w, each evaluated by Horner over the step-major slab:
//
//	S(w) = Σ_i γ_i w^{i+2},                γ_i = ca_i − i·sa_i
//	U(w) = Σ_i ((i+2)·γ_i − inv2·β_i) w^{i+2},  β_i = cb_i − i·sb_i
//
// where inv2 = R′²/d² = |w|² is fixed per point, so U's coefficients
// fold on the fly inside one chain instead of running a third Horner
// chain for the β polynomial. Writing e^{2iφ} = z²/|z|² = w²·d²/R′²,
// the Cartesian accumulation is
//
//	V    = U·e^{2iφ} = (U·w²)·(d²/R′²)
//	σxx += 2·Re(S·w²) + Re V,  σyy += 2·Re(S·w²) − Re V,  σxy += Im V
//
// which matches the per-round polar recurrence + rotation of
// PairEval.StressAt to round-off: the aggregation is an exact trig
// identity, so only summation order and recurrence rounding differ (the
// parity tests pin ≤1e-9 MPa; in isolation the two forms agree to
// ~1e-13). Far points start the Horner recursion at the precomputed
// truncation index, bounding the dropped tail below truncTolMPa per
// component; the start-index scan walks down from the full series so
// dense placements (which need every harmonic inside the cutoff) pay a
// single compare.
//
// px, py, sxx, syy, sxy must have equal length. Points inside the
// victim footprint take the aggregated interior path, interiorAt (the
// classification reproduces PairEval.StressAt's Hypot compare exactly
// via rp2Guard).
func (vr *VictimRounds) AccumulateTile(px, py, sxx, syy, sxy []float64, pd2 float64) {
	n := len(px)
	if len(py) != n || len(sxx) != n || len(syy) != n || len(sxy) != n {
		panic("interact: AccumulateTile lane length mismatch")
	}
	py, sxx, syy, sxy = py[:n], sxx[:n], syy[:n], sxy[:n]
	vx, vy, rp := vr.vicX, vr.vicY, vr.rPrime
	h, tr := vr.horner, vr.trunc
	kFull := vr.nm - 1
	for i := 0; i < n; i++ {
		dx := px[i] - vx
		dy := py[i] - vy
		d2 := dx*dx + dy*dy
		if d2 > pd2 {
			continue
		}
		if d2 < vr.rp2Guard {
			// Guard band: settle interior vs exterior with the exact
			// per-round compare.
			if math.Hypot(dx, dy) < rp {
				s := vr.interiorAt(px[i], py[i])
				sxx[i] += s.XX
				syy[i] += s.YY
				sxy[i] += s.XY
				continue
			}
		}
		d2inv := 1 / d2
		wx := rp * dx * d2inv
		wy := rp * dy * d2inv
		inv2 := vr.rp2 * d2inv
		w2R := wx*wx - wy*wy
		w2I := 2 * wx * wy
		var sR, sI, uR, uI float64
		if kFull == 0 || d2 < tr[kFull-1] {
			// Full-depth evaluation — the common case inside a dense
			// placement's cutoff. Estrin even/odd split: each chain is
			// Horner in v = w² at half length, so the two serial
			// dependency chains run concurrently and the recursion's
			// critical path halves (the kernel is latency-bound on the
			// chained multiply-adds, not on port throughput).
			ke := kFull - (kFull & 1) // highest even index
			ko := kFull - 1 + (kFull & 1)
			c := &h[ke]
			sER, sEI := c[0], c[1]
			uER := c[2] - inv2*c[4]
			uEI := c[3] - inv2*c[5]
			for o := ke - 2; o >= 0; o -= 2 {
				c = &h[o]
				sER, sEI = sER*w2R-sEI*w2I+c[0], sER*w2I+sEI*w2R+c[1]
				uER, uEI = uER*w2R-uEI*w2I+(c[2]-inv2*c[4]), uER*w2I+uEI*w2R+(c[3]-inv2*c[5])
			}
			sR, sI, uR, uI = sER, sEI, uER, uEI
			if ko >= 0 {
				c = &h[ko]
				sOR, sOI := c[0], c[1]
				uOR := c[2] - inv2*c[4]
				uOI := c[3] - inv2*c[5]
				for o := ko - 2; o >= 1; o -= 2 {
					c = &h[o]
					sOR, sOI = sOR*w2R-sOI*w2I+c[0], sOR*w2I+sOI*w2R+c[1]
					uOR, uOI = uOR*w2R-uOI*w2I+(c[2]-inv2*c[4]), uOR*w2I+uOI*w2R+(c[3]-inv2*c[5])
				}
				sR += wx*sOR - wy*sOI
				sI += wx*sOI + wy*sOR
				uR += wx*uOR - wy*uOI
				uI += wx*uOI + wy*uOR
			}
		} else {
			// A truncated start suffices: scan down to the smallest
			// admissible index and run the plain Horner recursion over
			// the shortened series.
			k := kFull - 1
			for k > 0 && d2 >= tr[k-1] {
				k--
			}
			c := &h[k]
			sR, sI = c[0], c[1]
			uR = c[2] - inv2*c[4]
			uI = c[3] - inv2*c[5]
			for o := k - 1; o >= 0; o-- {
				c = &h[o]
				sR, sI = sR*wx-sI*wy+c[0], sR*wy+sI*wx+c[1]
				uR, uI = uR*wx-uI*wy+(c[2]-inv2*c[4]), uR*wy+uI*wx+(c[3]-inv2*c[5])
			}
		}
		// The chains computed Σ c_i w^i; the series shift to w^{i+2}
		// multiplies both by w², and V picks up a second w² from
		// e^{2iφ} = w²·d²/R′². Only the real part of S survives.
		w4R := w2R*w2R - w2I*w2I
		w4I := 2 * w2R * w2I
		q := d2 * vr.rpInv2
		iso := 2 * (sR*w2R - sI*w2I)
		vR := (uR*w4R - uI*w4I) * q
		vI := (uR*w4I + uI*w4R) * q
		sxx[i] += iso + vR
		syy[i] += iso - vR
		sxy[i] += vI
	}
}
