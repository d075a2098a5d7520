"""The closed-form cell kernel against a Fourier-Motzkin reference.

The reference below is the general route the kernel replaced: feasibility,
implicit equalities and redundancy are all decided by `linear.feasible`.
Random cells are drawn from a small grid of coordinates and directions, so
collinear, parallel, touching and duplicated pieces come up often.
"""

from fractions import Fraction
from typing import Optional

from trop.complexes import _covered_1d
from trop.geom import (
    Cell,
    LineCell,
    PointCell,
    RayCell,
    RegionCell,
    SegCell,
    _as_param,
    _constraint_key,
    _segmentish,
    cell_constraints,
    intersect_cells,
    make_line,
    make_seg,
    perp,
    polyhedron,
)
from trop.linear import Constraint, dot, feasible, feasible_point, ge, is_zero, vscale

CASES = 150
COORDS = [Fraction(k, 2) for k in range(-4, 5)]
DIRS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2), (-1, 0), (0, -1)]


# -- the Fourier-Motzkin reference -----------------------------------------------


def ref_polyhedron(constraints, arity: int) -> Optional[Cell]:
    cs = [c for c in constraints if not is_zero(c.coeffs) or not c.holds((0,) * arity)]
    if any(is_zero(c.coeffs) for c in cs):
        return None
    p = feasible_point(cs, arity)
    if p is None:
        return None
    if feasible([Constraint(c.coeffs, c.rhs, True) for c in cs], arity):
        if arity == 1:
            return _ref_clip((Fraction(0),), (1,), cs)
        reduced = _ref_irredundant(cs, arity)
        return RegionCell(2, tuple(reduced)) if reduced else RegionCell(2, ())
    eqs = [
        c
        for i, c in enumerate(cs)
        if not feasible(cs[:i] + cs[i + 1 :] + [Constraint(c.coeffs, c.rhs, True)], arity)
    ]
    if arity == 1:
        return PointCell(1, p)
    directions = {perp(c.coeffs) for c in eqs}
    if len(directions) != 1:
        return PointCell(2, p)
    return _ref_clip(p, directions.pop(), cs)


def _ref_irredundant(cs, arity):
    seen, kept = set(), []
    for c in cs:
        if _constraint_key(c) not in seen:
            seen.add(_constraint_key(c))
            kept.append(c)
    i = 0
    while i < len(kept):
        c = kept[i]
        violated = Constraint(vscale(Fraction(-1), c.coeffs), -c.rhs, True)
        if feasible(kept[:i] + kept[i + 1 :] + [violated], arity):
            i += 1
        else:
            kept.pop(i)
    return kept


def _ref_clip(p, direction, cs):
    d = tuple(Fraction(x) for x in direction)
    lo = hi = None
    for c in cs:
        slope, off = dot(c.coeffs, d), dot(c.coeffs, p)
        if slope == 0:
            if off < c.rhs:
                return None
            continue
        t = (c.rhs - off) / slope
        if slope > 0:
            lo = t if lo is None else max(lo, t)
        else:
            hi = t if hi is None else min(hi, t)
    if lo is not None and hi is not None and lo > hi:
        return None
    return _segmentish(len(p), lo, hi, p, direction)


def ref_intersect(c1: Cell, c2: Cell) -> Optional[Cell]:
    if isinstance(c1, PointCell):
        return c1 if c2.contains(c1.p) else None
    if isinstance(c2, PointCell):
        return c2 if c1.contains(c2.p) else None
    return ref_polyhedron(cell_constraints(c1) + cell_constraints(c2), c1.arity)


def ref_covered_1d(cell: Cell, cells) -> bool:
    base, d, lo, hi = _as_param(cell)
    d2 = dot(d, d)
    at = lambda p: dot(d, tuple(x - y for x, y in zip(p, base))) / d2
    inf = float("inf")
    intervals = []
    for other in cells:
        inter = ref_intersect(cell, other) if other.dim >= 1 else None
        if isinstance(inter, SegCell):
            intervals.append(tuple(sorted((at(inter.a), at(inter.b)))))
        elif isinstance(inter, RayCell):
            forward = dot(d, tuple(Fraction(x) for x in inter.dir)) > 0
            intervals.append((at(inter.base), inf) if forward else (-inf, at(inter.base)))
        elif isinstance(inter, LineCell):
            return True
    cursor, target = (-inf if lo is None else lo), (inf if hi is None else hi)
    for t0, t1 in sorted(intervals):
        if cursor >= target:
            return True
        if t0 > cursor:
            return False
        cursor = max(cursor, t1)
    return cursor >= target


# -- random cells ------------------------------------------------------------------


def _point(rng):
    return (rng.choice(COORDS), rng.choice(COORDS))


def _constraint(rng, arity=2):
    if arity == 1:
        return ge((rng.choice([-2, -1, 0, 1, 2]),), rng.choice(COORDS))
    a = (0, 0) if rng.random() < 0.05 else rng.choice(DIRS)
    return ge(a, rng.choice(COORDS))


def random_system(rng, arity=2):
    cs = [_constraint(rng, arity) for _ in range(rng.randint(0, 5))]
    if arity == 2 and rng.random() < 0.3:  # a cone at a grid point: often a point
        p = _point(rng)
        for a in rng.sample(DIRS, rng.randint(2, 4)):
            cs.append(ge(a, dot(tuple(map(Fraction, a)), p)))
    if cs and rng.random() < 0.3:  # an opposite copy: pinch onto a line
        c = rng.choice(cs)
        cs.append(Constraint(vscale(Fraction(-1), c.coeffs), -c.rhs + rng.choice([0, 0, 1])))
    if cs and rng.random() < 0.2:  # a scaled duplicate
        c = rng.choice(cs)
        cs.insert(rng.randrange(len(cs)), Constraint(vscale(Fraction(2), c.coeffs), 2 * c.rhs))
    rng.shuffle(cs)
    return cs


def random_cell(rng) -> Cell:
    kind = rng.choice(["point", "seg", "ray", "line", "region", "region"])
    p = _point(rng)
    d = rng.choice(DIRS)
    if kind == "point":
        return PointCell(2, p)
    if kind == "seg":
        q = tuple(x + rng.choice([1, 2]) * Fraction(y) for x, y in zip(p, d))
        return make_seg(p, q)
    if kind == "ray":
        return RayCell(2, p, d)
    if kind == "line":
        return make_line(p, d)
    while True:
        cell = ref_polyhedron([_constraint(rng) for _ in range(rng.randint(1, 4))], 2)
        if cell is not None and cell.dim == 2:
            return cell


def _same(new, ref):
    assert type(new) is type(ref)
    if ref is None:
        return
    assert new.key() == ref.key()
    if isinstance(ref, RegionCell):
        assert new.constraints == ref.constraints
    assert new == ref


# -- the properties ------------------------------------------------------------------


def test_polyhedron_matches_reference(rng):
    for arity in (1, 2, 2):
        for _ in range(CASES):
            cs = random_system(rng, arity)
            _same(polyhedron(cs, arity), ref_polyhedron(cs, arity))


def test_intersect_cells_matches_reference(rng):
    for _ in range(CASES):
        c1, c2 = random_cell(rng), random_cell(rng)
        if rng.random() < 0.2:  # touching or overlapping copies of one carrier
            c2 = ref_intersect(c1, random_cell(rng)) or c1
        _same(intersect_cells(c1, c2), ref_intersect(c1, c2))
        _same(intersect_cells(c2, c1), ref_intersect(c2, c1))


def test_covered_1d_matches_reference(rng):
    checked = 0
    while checked < CASES // 3:
        cell = random_cell(rng)
        if cell.dim != 1:
            continue
        checked += 1
        cells = [random_cell(rng) for _ in range(rng.randint(0, 4))]
        # pieces of the cell itself, so that exact covers occur
        for _ in range(rng.randint(0, 3)):
            piece = ref_intersect(cell, random_cell(rng))
            if piece is not None:
                cells.append(piece)
        assert _covered_1d(cell, cells) == ref_covered_1d(cell, cells)
