//===- transform/FarkasConstraints.h - Farkas-based constraints -*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the linear constraints of the paper's ILP formulation by applying
/// the affine form of the Farkas lemma on dependence polyhedra:
///
///  - legality of tiling (paper eq. (2)):
///      phi_dst(t) - phi_src(s) >= 0   for all (s, t) in P_e
///  - cost bounding (paper eq. (4)):
///      u.p + w - (phi_dst(t) - phi_src(s)) >= 0   for all (s, t) in P_e
///    (and the mirrored form for input dependences, Section 4.1).
///
/// A non-negative affine form over a polyhedron is a non-negative
/// combination of the polyhedron's faces (Farkas). Equating coefficients
/// links a form's coefficient vector z to the Farkas multipliers lambda;
/// eliminating the multipliers (Gaussian substitution + Fourier-Motzkin)
/// leaves the cone of the forms that are non-negative on the polyhedron,
/// H.z >= 0 and G.z == 0 (FarkasConeCache::coneOf). The forms here have
/// coefficients affine in the global ILP variables v, z = F.(v, 1), so
/// each legality or bounding form gets its constraints, H.F.(v, 1) >= 0
/// and G.F.(v, 1) == 0, from one matrix product (DESIGN.md section 7.2).
///
/// The product is exact: projecting the multipliers out commutes with the
/// substitution z = F.(v, 1), as both sides are {v : F.(v, 1) in the cone}.
/// The forms have no constant term, so every row of either formulation is
/// homogeneous and normalize()'s gcd tightening never acts in either one:
/// the lexmin sees the integer set a fresh elimination per form gives. The
/// multipliers depend only on the polyhedron, so a schedule search computes
/// one cone per distinct polyhedron (FarkasConeCache, keyed by its full
/// rows) and shares it among every form of every dependence on it.
///
/// The lemma is applied to the dependence polyhedron after its equalities
/// are compressed out (FarkasDomain): an equality with a +-1 coefficient
/// substitutes that variable away instead of adding a +-multiplier pair,
/// and inequalities that then coincide collapse. The rational polyhedron is
/// unchanged, so the constraints describe the same set.
///
/// Global variable layout (lexmin order, paper eq. (5)):
///   [ ur_1..ur_np | wr | u_1..u_np | w | c^{S1}_m1..c^{S1}_1, c^{S1}_0 |...]
/// Iterator coefficients appear INNERMOST-first within each statement, so
/// among cost-equivalent solutions the lexmin prefers hyperplanes along
/// outer original loops: matmul keeps the identity order, and MVT's fusion
/// picks the paper's stride-1 pairing (i of the first MV with j of the
/// permuted second one) rather than the transposed stride-N one.
///
/// Input (RAR) dependences are bounded by their own bounding function
/// ur.p + wr, which LEADS the lexmin order. This realizes Section 4.1 the
/// way the paper's MVT experiment behaves: the reuse distance on the
/// dominant (maximal-rank) array is minimized even at the expense of
/// synchronization-free parallelism ("this however leads to loss of
/// synchronization-free parallelism", Sec. 7 MVT) - with a single joint
/// bound, the unfused i/i solution has u = 0 on the legality dependences
/// and the fusion the paper reports would never be chosen. Programs without
/// input dependences leave (ur, wr) at zero and behave exactly as eq. (5).
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_TRANSFORM_FARKASCONSTRAINTS_H
#define PLUTOPP_TRANSFORM_FARKASCONSTRAINTS_H

#include "deps/Dependences.h"
#include "ir/Program.h"

#include <map>

namespace pluto {

/// Column layout of the global ILP variable vector.
class VarLayout {
public:
  explicit VarLayout(const Program &Prog);

  unsigned numVars() const { return Total; }
  /// Leading bounding coefficients for input (RAR) dependences.
  unsigned uRarOffset() const { return 0; }
  unsigned wRarOffset() const { return NumParams; }
  unsigned uOffset() const { return NumParams + 1; }
  unsigned wOffset() const { return 2 * NumParams + 1; }
  unsigned stmtNumIters(unsigned S) const { return StmtIters[S]; }
  /// Column of the coefficient of iterator I (0 = outermost) of statement S.
  unsigned coeffCol(unsigned S, unsigned I) const {
    assert(I < StmtIters[S] && "iterator index out of range");
    return StmtOffsets[S] + (StmtIters[S] - 1 - I);
  }
  /// Offset of statement S's translation coefficient c0.
  unsigned stmtC0(unsigned S) const {
    return StmtOffsets[S] + StmtIters[S];
  }

private:
  unsigned NumParams;
  /// Per statement: offset of its coefficient block (iterator
  /// coefficients, innermost-first, then c0).
  std::vector<unsigned> StmtOffsets;
  std::vector<unsigned> StmtIters;
  unsigned Total;
};

/// The Farkas cones of one schedule search, each computed once per distinct
/// compressed polyhedron. The key is the polyhedron's full rows, so two
/// polyhedra share a cone only when they are equal row for row.
class FarkasConeCache {
public:
  /// The cone of Poly over y (DESIGN.md section 7.2): the coefficient
  /// vectors z = (z_y, z_1) of the affine forms z_y.y + z_1 that are
  /// non-negative on Poly, as a system over z whose every row is
  /// homogeneous. By the affine Farkas lemma these forms are the
  /// non-negative combinations of Poly's faces and of the constant 1; the
  /// cone is that coefficient-matching system with the multipliers
  /// projected out, the set isl computes with isl_basic_set_coefficients.
  /// Computed on first request; the reference stays valid as long as the
  /// cache.
  const ConstraintSystem &coneOf(const ConstraintSystem &Poly);
  /// The number of cones computed so far.
  size_t size() const { return Cones.size(); }

private:
  std::map<std::vector<BigInt>, ConstraintSystem> Cones;
};

/// A dependence polyhedron prepared for Farkas elimination (DESIGN.md
/// section 7.2). Each equality of D.Poly with a +-1 coefficient (after
/// division by the gcd of its entries) substitutes that dependence-space
/// variable away, and inequalities that then share a coefficient vector
/// collapse to the tightest constant. The substitution is an affine
/// bijection of the polyhedron's affine hull, so an affine form is
/// non-negative on D.Poly iff its substituted form is non-negative on Poly,
/// and the Farkas systems describe the same layout-variable sets with fewer
/// multipliers. Equalities with no unit coefficient stay and keep their
/// multiplier pairs. D.Poly itself is left as it is.
struct FarkasDomain {
  /// Compresses D.Poly and looks its cone up in (or adds it to) Cones.
  FarkasDomain(const Dependence &D, FarkasConeCache &Cones);

  /// The dependence; it must outlive the domain.
  const Dependence &Dep;
  /// The compressed polyhedron over the dimensions that were not
  /// substituted (y).
  ConstraintSystem Poly;
  /// Maps the coefficient rows of a form over [src iters | dst iters |
  /// params | 1] to its coefficient rows over (y, 1): FormMap * Rows.
  IntMatrix FormMap;
  /// The cone of Poly, owned by the cache the domain was built with.
  const ConstraintSystem *Cone = nullptr;
};

/// The coefficient rows, as farkasEliminate takes them, of the form that
/// legality (paper eq. (2)) needs non-negative on D.Poly: delta_e.
IntMatrix legalityForm(const Dependence &D, const Program &Prog,
                       const VarLayout &Layout);

/// The coefficient rows of the forms that cost bounding (paper eq. (4))
/// needs non-negative on D.Poly: u.p + w - delta_e, and for an input
/// dependence also u.p + w + delta_e, over its own (ur, wr) (Sec. 4.1).
std::vector<IntMatrix> boundingForms(const Dependence &D, const Program &Prog,
                                     const VarLayout &Layout);

/// Constraints (over Layout variables) making phi legal for dependence
/// Dom.Dep (paper eq. (2)), from the Farkas cone of Dom.Poly.
ConstraintSystem legalityConstraints(const FarkasDomain &Dom,
                                     const Program &Prog,
                                     const VarLayout &Layout);

/// Constraints bounding delta_e by u.p + w (paper eq. (4)). For input
/// dependences both |delta| <= u.p + w directions are emitted (Sec. 4.1).
ConstraintSystem boundingConstraints(const FarkasDomain &Dom,
                                     const Program &Prog,
                                     const VarLayout &Layout);

/// Shared engine: given an affine form over the dependence space whose
/// coefficients are themselves affine in the layout variables, produce the
/// layout-variable constraints equivalent to "form >= 0 on Dom.Dep.Poly":
/// with F = Dom.FormMap * FormCoeffs, the form's coefficients over (y, 1),
/// the cone's rows times F, normalized. No multiplier is eliminated here.
/// FormCoeffs has one row per dependence-space column (src iters, dst
/// iters, params, constant); each row is over [layout vars | 1].
ConstraintSystem farkasEliminate(const FarkasDomain &Dom,
                                 const IntMatrix &FormCoeffs,
                                 unsigned NumLayoutVars);

} // namespace pluto

#endif // PLUTOPP_TRANSFORM_FARKASCONSTRAINTS_H
