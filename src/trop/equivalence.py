"""Function equality on algebraic sets, essential agreement, admissibility.

Two polynomials are equal on X when they agree in magnitude AND ghostness
at every point of X, for every pattern of ghost coordinates.  The decision
is exact: cells of X's carrier are refined along the tie structure of both
polynomials; on every refined piece both functions are a single affine
magnitude with a constant ghost profile.

Essential agreement asks for equality off a lower-dimensional exception
set (lower-dimensional within each facet); an admissible set is one where
essential agreement forces equality.  Inadmissibility is certified by an
explicit witness pair, admissibility by structural certificates
(hypersurfaces of tangible polynomials, single points, the ambient space).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .complexes import cross_tie_lines, tie_lines
from .errors import ArityError, InternalContradiction
from .geom import (
    Cell,
    PointCell,
    RayCell,
    _as_param,
    cell_constraints,
    cell_contains_cell,
    make_line,
    make_seg,
    polyhedron,
    primitive_signed,
)
from .linear import Constraint, Vec, dot, feasible, form_ge, vadd, vscale
from .loci import AlgebraicSet
from .poly import Point, TropicalPolynomial
from .values import st


def _patterns(arity: int) -> list[tuple[int, ...]]:
    out = []
    for k in range(arity + 1):
        out.extend(itertools.combinations(range(arity), k))
    return out


def _patterned_point(mags: Sequence[Fraction], pattern: Sequence[int]) -> Point:
    return Point(
        tuple(
            st(m, ghost=(i in pattern)) for i, m in enumerate(mags)
        )
    )


@dataclass(frozen=True)
class Disagreement:
    piece: Cell
    detail: str
    #: which coordinates were ghosted where the disagreement shows; the
    #: empty pattern means a disagreement at tangible points
    pattern: tuple[int, ...] = ()


# -- restriction of a polynomial to a 1-dimensional cell -----------------------


def _restricted_groups(
    f: TropicalPolynomial, base: Vec, d: Vec
) -> list[tuple[Fraction, Fraction, tuple[int, ...]]]:
    """Restricted magnitude forms grouped by (slope, intercept).

    Parallel groups strictly below another parallel group can never attain
    the maximum and are dropped.
    """
    groups: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i, m in enumerate(f.terms):
        form = m.form()
        slope = dot(form.coeffs, d)
        intercept = form(base)
        groups.setdefault((slope, intercept), []).append(i)
    best_by_slope: dict[Fraction, Fraction] = {}
    for (s, c) in groups:
        if s not in best_by_slope or c > best_by_slope[s]:
            best_by_slope[s] = c
    return sorted(
        (s, c, tuple(ids))
        for (s, c), ids in groups.items()
        if c == best_by_slope[s]
    )


def _dominant_group(
    groups: list[tuple[Fraction, Fraction, tuple[int, ...]]], t: Fraction
) -> tuple[Fraction, tuple[int, ...], tuple[Fraction, Fraction]]:
    best = None
    ids: list[int] = []
    form = None
    for s, c, gids in groups:
        v = s * t + c
        if best is None or v > best:
            best, ids, form = v, list(gids), (s, c)
        elif v == best:
            ids.extend(gids)
    return best, tuple(sorted(ids)), form


def _ghost_profile(
    f: TropicalPolynomial, dom: tuple[int, ...], pattern: Sequence[int]
) -> bool:
    if len(dom) >= 2:
        return True
    i = dom[0]
    if f.terms[i].coeff.ghost:
        return True
    return any(f.terms[i].exps[j] != 0 for j in pattern)


def _piece_cells(cell: Cell, ts: list[Fraction]):
    """Decompose a 1-dim cell at parameters ts: breakpoints and intervals.

    Yields (subcell, t_sample, is_breakpoint).
    """
    base, d, lo, hi = _as_param(cell)
    inner = sorted({t for t in ts if _inside(t, lo, hi)})
    stops: list = []
    if lo is not None:
        stops.append(lo)
    stops.extend(inner)
    if hi is not None:
        stops.append(hi)
    at = lambda t: vadd(base, vscale(t, d))

    for t in stops:
        yield PointCell(cell.arity, at(t)), t, True
    bounds = [lo] + inner + [hi]
    for a, b in zip(bounds, bounds[1:]):
        if a is not None and b is not None:
            if a == b:
                continue
            sub = make_seg(at(a), at(b))
            mid = (a + b) / 2
        elif a is None and b is None:
            sub = make_line(base, d)
            mid = Fraction(0)
        elif a is None:
            sub = RayCell(cell.arity, at(b), primitive_signed(tuple(-x for x in d)))
            mid = b - 1
        else:
            sub = RayCell(cell.arity, at(a), primitive_signed(d))
            mid = a + 1
        yield sub, mid, False


def _inside(t: Fraction, lo, hi) -> bool:
    if lo is not None and t <= lo:
        return False
    if hi is not None and t >= hi:
        return False
    return True


# -- the comparator -------------------------------------------------------------


def _compare_dim0(
    p: Vec, f: TropicalPolynomial, g: TropicalPolynomial, patterns=((),)
) -> list[tuple[str, tuple[int, ...]]]:
    out = []
    for pattern in patterns:
        pt = _patterned_point(p, pattern)
        vf, vg = f.eval(pt), g.eval(pt)
        if vf != vg:
            out.append((f"at {pt}: {vf} vs {vg}", pattern))
    return out


def _compare_dim1(
    cell: Cell, f: TropicalPolynomial, g: TropicalPolynomial, patterns=((),)
) -> list[Disagreement]:
    base, d, _, _ = _as_param(cell)
    gf = _restricted_groups(f, base, d)
    gg = _restricted_groups(g, base, d)
    ts = _group_ties(gf) + _group_ties(gg)
    out = []
    for sub, t, is_break in _piece_cells(cell, ts):
        if is_break:
            for detail, pattern in _compare_dim0(sub.p, f, g, patterns):
                out.append(Disagreement(sub, detail, pattern))
            continue
        _, domf, formf = _dominant_group(gf, t)
        _, domg, formg = _dominant_group(gg, t)
        if formf != formg:
            out.append(
                Disagreement(sub, f"magnitudes differ: {formf} vs {formg}")
            )
            continue
        for pattern in patterns:
            ghf = _ghost_profile(f, domf, pattern)
            ghg = _ghost_profile(g, domg, pattern)
            if ghf != ghg:
                out.append(
                    Disagreement(
                        sub,
                        f"ghost profile differs for ghost coordinates {pattern}",
                        pattern,
                    )
                )
    return out


def _group_ties(groups) -> list[Fraction]:
    ts = []
    for (s1, c1, _), (s2, c2, _) in itertools.combinations(groups, 2):
        if s1 != s2:
            ts.append((c2 - c1) / (s1 - s2))
    return ts


def _strict(cons: Iterable[Constraint]) -> list[Constraint]:
    return [Constraint(c.coeffs, c.rhs, True) for c in cons]


def _compare_full_dim(
    cell: Cell, f: TropicalPolynomial, g: TropicalPolynomial, patterns=((),)
) -> list[Disagreement]:
    """Compare on a full-dimensional cell (its relative interior is open)."""
    n = cell.arity
    region = _strict(cell_constraints(cell))
    forms_f = f.forms()
    forms_g = g.forms()
    # (a) open magnitude mismatch: one of f's terms strictly beats all of g
    for forms_a, forms_b, name in (
        (forms_f, forms_g, "f above g"),
        (forms_g, forms_f, "g above f"),
    ):
        for fa in forms_a:
            sys = region + [form_ge(fa, fb, strict=True) for fb in forms_b]
            if feasible(sys, n):
                return [Disagreement(cell, f"magnitudes differ on an open set ({name})")]
    # (b) open ghost-profile mismatch
    for pattern in patterns:
        for pa, pb, fa_, fb_ in ((f, g, forms_f, forms_g), (g, f, forms_g, forms_f)):
            for i, mi in enumerate(pa.terms):
                if mi.coeff.ghost or any(mi.exps[j] != 0 for j in pattern):
                    continue  # not a tangible witness for this pattern
                sys_i = [
                    form_ge(fa_[i], fa_[k], strict=True)
                    for k in range(len(fa_))
                    if k != i
                ]
                for j, mj in enumerate(pb.terms):
                    ghostish = mj.coeff.ghost or any(
                        mj.exps[l] != 0 for l in pattern
                    )
                    if not ghostish:
                        continue
                    sys_j = [
                        form_ge(fb_[j], fb_[k], strict=True)
                        for k in range(len(fb_))
                        if k != j
                    ]
                    if feasible(region + sys_i + sys_j, n):
                        return [
                            Disagreement(
                                cell,
                                "ghost profile differs on an open set "
                                f"(ghost coordinates {pattern})",
                                pattern,
                            )
                        ]
    # no open disagreement: anything left lives on tie lines
    if n != 2:
        return []  # a 1-dim "full space" never reaches here; see equal_on
    lines = tie_lines(f) | tie_lines(g) | cross_tie_lines(f, g)
    out: list[Disagreement] = []
    seen = set()
    for line in sorted(lines, key=lambda l: (l.a, l.c)):
        normal = tuple(Fraction(x) for x in line.a)
        cons = list(cell_constraints(cell)) + [
            Constraint(normal, line.c),
            Constraint(vscale(Fraction(-1), normal), -line.c),
        ]
        piece = polyhedron(cons, 2)
        if piece is None:
            continue
        if piece.dim == 0:
            if piece.key() not in seen:
                found = _compare_dim0(piece.p, f, g, patterns)
                if found:
                    seen.add(piece.key())
                    for detail, pattern in found:
                        out.append(Disagreement(piece, detail, pattern))
            continue
        for dis in _compare_dim1(piece, f, g, patterns):
            if (dis.piece.key(), dis.pattern) not in seen:
                seen.add((dis.piece.key(), dis.pattern))
                out.append(dis)
    return out


def compare_on_cell(
    cell: Cell,
    f: TropicalPolynomial,
    g: TropicalPolynomial,
    patterns=((),),
) -> list[Disagreement]:
    if cell.dim == 0:
        return [
            Disagreement(cell, detail, pattern)
            for detail, pattern in _compare_dim0(cell.p, f, g, patterns)
        ]
    if cell.dim == 1:
        return _compare_dim1(cell, f, g, patterns)
    return _compare_full_dim(cell, f, g, patterns)


def _check(X: AlgebraicSet, f: TropicalPolynomial, g: TropicalPolynomial) -> None:
    if f.arity != X.arity or g.arity != X.arity:
        raise ArityError("polynomial arity does not match the set")
    if X.complex is None:
        raise ArityError(
            "exact comparison needs arity <= 2; use witness points for arity 3"
        )


def disagreements_on(
    X: AlgebraicSet,
    f: TropicalPolynomial,
    g: TropicalPolynomial,
    ghost_patterns: bool = False,
) -> list[Disagreement]:
    """Pieces of X where f and g differ.

    Functions on X are restricted to tangible points (the coordinate
    semiring evaluates at tangible lifts); pass ghost_patterns=True to
    also sweep every combination of ghost coordinates as a diagnostic.
    """
    _check(X, f, g)
    patterns = _patterns(X.arity) if ghost_patterns else [()]
    out: list[Disagreement] = []
    seen = set()
    for cell in X.complex.cells:
        for dis in compare_on_cell(cell, f, g, patterns):
            if (dis.piece.key(), dis.pattern) not in seen:
                seen.add((dis.piece.key(), dis.pattern))
                out.append(dis)
    return out


def equal_on(
    X: AlgebraicSet, f: TropicalPolynomial, g: TropicalPolynomial
) -> bool:
    """Pointwise equality (magnitude and ghostness) of f and g on X."""
    return not disagreements_on(X, f, g)


def _local_dim(X: AlgebraicSet, piece: Cell) -> int:
    dims = [
        c.dim for c in X.complex.cells if cell_contains_cell(c, piece)
    ]
    return max(dims, default=piece.dim)


@dataclass(frozen=True)
class Agreement:
    agrees: bool
    exceptions: tuple[Disagreement, ...]
    equal: bool


def essentially_agree(
    X: AlgebraicSet, f: TropicalPolynomial, g: TropicalPolynomial
) -> Agreement:
    """Equality of f and g off a lower-dimensional exception set of X.

    Density is carried by tangible points: a point with ghost coordinates
    has the same magnitudes as tangible points arbitrarily close to it, so
    only disagreements at tangible points can break density.  Those must be
    lower-dimensional within each facet; an isolated point of X can never
    be excepted.
    """
    dis = disagreements_on(X, f, g)
    acceptable = all(d.piece.dim < _local_dim(X, d.piece) for d in dis)
    if acceptable:
        for d in dis:
            # theory check: near-agreement forces magnitude agreement
            s = d.piece.sample()
            if f.eval_mag(s)[0] != g.eval_mag(s)[0]:
                raise InternalContradiction(
                    f"magnitudes differ at exception point {s}"
                )
    return Agreement(acceptable, tuple(dis), not dis)


# -- admissibility ----------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityVerdict:
    verdict: str  # "admissible" | "inadmissible" | "unknown"
    reason: str
    witness: Optional[tuple[TropicalPolynomial, TropicalPolynomial]] = None
    exceptions: tuple[Disagreement, ...] = ()

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = [str(self.witness[0]), str(self.witness[1])]
            out["exceptions"] = [
                {"piece": str(d.piece), "detail": d.detail}
                for d in self.exceptions
            ]
        return out


def default_witnesses(
    X: AlgebraicSet, cap: int = 240
) -> list[tuple[TropicalPolynomial, TropicalPolynomial]]:
    """A bounded family of candidate essentially-agreeing pairs.

    Per defining polynomial f = sum of h_i the family contains the deleted
    pairs (f - h_i, f), the complement pairs (f - h_i, h_i), the erased
    facet products ((f-h_k)(f-h_l), f * (f-h_k-h_l)), and unit-monomial
    shifts (x^p, x^p + c) over constants drawn from coefficients, their
    differences, and vertex coordinates of the carrier.
    """
    out: list[tuple[TropicalPolynomial, TropicalPolynomial]] = []
    seen: set[tuple[str, str]] = set()

    def push(a: TropicalPolynomial, b: TropicalPolynomial) -> None:
        key = (str(a), str(b))
        if key not in seen and len(out) < cap:
            seen.add(key)
            out.append((a, b))

    consts: list[Fraction] = []
    for cond in X.conditions:
        for m in cond.f.terms:
            consts.append(m.coeff.magnitude)
    for a, b in itertools.combinations(list(consts), 2):
        consts.extend([a - b, b - a])
    if X.complex is not None:
        for v in X.complex.vertex_list():
            consts.extend(v)
    const_list = sorted(set(consts))

    for cond in X.conditions:
        f = cond.f
        k = len(f.terms)
        if k >= 2:
            for i in range(k):
                push(f.without_term(i), f)
                push(f.without_term(i), f.monomial(i))
        if k >= 3:
            for i, j in itertools.combinations(range(k), 2):
                push(
                    f.without_term(i) * f.without_term(j),
                    f * f.without_term(i, j),
                )
        for m in f.terms:
            if all(e == 0 for e in m.exps):
                continue
            unit = TropicalPolynomial(f.arity, [(m.exps, st(0))])
            for c in const_list:
                shifted = TropicalPolynomial(
                    f.arity, [(m.exps, st(0)), ((Fraction(0),) * f.arity, st(c))]
                )
                push(unit, shifted)
    return out


def check_admissible(
    X: AlgebraicSet,
    witnesses: Optional[Sequence[tuple[TropicalPolynomial, TropicalPolynomial]]] = None,
) -> AdmissibilityVerdict:
    """Certify admissibility structurally, or refute it with a witness pair.

    A witness pair essentially agrees on X without being equal on X.  With
    no certificate and no witness the verdict stays unknown.
    """
    if X.is_ambient():
        return AdmissibilityVerdict("admissible", "ambient coordinate semiring")
    if X.is_empty():
        return AdmissibilityVerdict("admissible", "empty set")
    if X.is_point_like():
        return AdmissibilityVerdict("admissible", "finite union of point fibers")
    if X.is_tangible_hypersurface():
        return AdmissibilityVerdict(
            "admissible", "hypersurface of a tangible polynomial"
        )
    pairs = default_witnesses(X) if witnesses is None else list(witnesses)
    for u, v in pairs:
        agreement = essentially_agree(X, u, v)
        if agreement.agrees and not agreement.equal:
            return AdmissibilityVerdict(
                "inadmissible",
                "witness pair essentially agrees but is not equal",
                (u, v),
                agreement.exceptions,
            )
    return AdmissibilityVerdict(
        "unknown", "no certificate applies and no witness pair succeeded"
    )


# -- the congruence of X ------------------------------------------------------------


@dataclass
class Congruence:
    """Function equality modulo restriction to X."""

    X: AlgebraicSet
    generators: tuple[tuple[TropicalPolynomial, TropicalPolynomial], ...] = ()

    def equal(self, f: TropicalPolynomial, g: TropicalPolynomial) -> bool:
        return equal_on(self.X, f, g)

    def essentially_agree(self, f, g) -> Agreement:
        return essentially_agree(self.X, f, g)

    def admissible(self, witnesses=None) -> AdmissibilityVerdict:
        return check_admissible(self.X, witnesses)


# -- tangible function lifts ---------------------------------------------------------


def _cell_candidates(
    X: AlgebraicSet,
    f: TropicalPolynomial,
    exponents: Sequence[tuple],
    cell: Cell,
) -> list[tuple[tuple, Fraction]]:
    """Monomials from the allowed support matching f's magnitude on a cell."""
    s = cell.sample()
    val, dom = f.eval_mag(s)
    if cell.dim == cell.arity and cell.dim > 1:
        # full-dimensional: the affine form must be matched exactly
        e_dom = f.terms[dom[0]].exps
        if e_dom in [tuple(Fraction(x) for x in w) for w in exponents]:
            return [(e_dom, val - dot(e_dom, s))]
        return []
    cands = []
    if cell.dim == 0:
        dirs = []
    else:
        _, d, _, _ = _as_param(cell)
        dirs = [d]
    if dirs:
        e_dom = f.terms[dom[0]].exps
        slope = dot(tuple(Fraction(x) for x in e_dom), dirs[0])
    for w in exponents:
        wv = tuple(Fraction(x) for x in w)
        if dirs and dot(wv, dirs[0]) != slope:
            continue
        coeff = val - dot(wv, s)
        cands.append((tuple(wv), coeff))
    return cands


def find_tangible_function_lift(
    X: AlgebraicSet,
    f: TropicalPolynomial,
    exponents: Sequence[Sequence],
    max_terms: int = 4,
) -> Optional[TropicalPolynomial]:
    """Search for tangible g with g^nu = f^nu on X, g tangible on a dense
    subset of X, with support drawn from the given exponent vectors."""
    _check(X, f, f)
    if _tangible_dense_on(X, f):
        return f
    exps = [tuple(Fraction(x) for x in w) for w in exponents]
    cells = [c for c in X.complex.cells if c.dim >= 1] or list(X.complex.cells)
    per_cell = [_cell_candidates(X, f, exps, c) for c in cells]
    if any(not cands for cands in per_cell):
        return None
    pool: list[tuple[tuple, Fraction]] = sorted(
        {cand for cands in per_cell for cand in cands}
    )
    for size in range(1, min(max_terms, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            ws = [w for w, _ in combo]
            if len(set(ws)) < len(ws):
                continue  # conflicting coefficients on one pure part
            if not all(any(c in combo for c in cands) for cands in per_cell):
                continue
            g = TropicalPolynomial(
                X.arity, [(w, st(c)) for w, c in combo]
            )
            if equal_on(X, g.nu(), f.nu()) and _tangible_dense_on(X, g):
                return g
    return None


def _tangible_dense_on(X: AlgebraicSet, g: TropicalPolynomial) -> bool:
    """g takes tangible values off a lower-dimensional subset of X.

    Ghost values are allowed only on pieces of dimension strictly below
    the containing cell; an entire open piece of ghost values breaks
    density.
    """
    for cell in X.complex.cells:
        if cell.dim == 0:
            continue  # isolated ghosts do not break density
        if cell.arity == cell.dim:
            # full-dimensional: no ghost-coefficient term may dominate an
            # open subregion (ties are lower-dimensional automatically)
            region = _strict(cell_constraints(cell))
            for i, m in enumerate(g.terms):
                if m.coeff.ghost and feasible(
                    region + g.dominance(i, strict=True), cell.arity
                ):
                    return False
            continue
        base, d, _, _ = _as_param(cell)
        groups = _restricted_groups(g, base, d)
        for sub, t, is_break in _piece_cells(cell, _group_ties(groups)):
            if is_break:
                continue
            _, dom, _ = _dominant_group(groups, t)
            if len(dom) >= 2 or g.terms[dom[0]].coeff.ghost:
                return False
    return True
