"""Exact convex cells in one and two rational dimensions.

A cell is a nonempty convex polyhedron presented in a canonical, exact
form: a point, a segment, a ray, a full line, or a two-dimensional region
(kept as an H-representation with a cached V-representation).  Cells are
the carriers of all the piecewise-linear geometry in the package; every
coordinate is a Fraction and every predicate is decided exactly.

Intersections are computed in closed form.  A 1-cell is a parameter
interval on a line, clipped by the other operand's constraints
(`clip_interval`).  A planar system is decided by clipping the boundary
line of each constraint by the whole system (`polyhedron`).  No general
linear solver is involved, apart from the interior sample of a region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ArityError
from .linear import (
    Constraint,
    Vec,
    dot,
    feasible_point,
    is_zero,
    primitive,
    vadd,
    vscale,
    vsub,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fvec(*xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def perp(a: Sequence) -> tuple[int, ...]:
    """A primitive vector perpendicular to a (2D only)."""
    return primitive((Fraction(-a[1]), Fraction(a[0])))


@dataclass(frozen=True)
class Cell:
    arity: int

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sample(self) -> Vec:
        """A rational point in the relative interior."""
        raise NotImplementedError

    def contains(self, p: Sequence[Fraction]) -> bool:
        raise NotImplementedError

    def key(self):
        """Canonical hashable identity of the underlying point set."""
        raise NotImplementedError

    def sort_key(self):
        """Deterministic total order among cells of equal dimension."""
        raise NotImplementedError


@dataclass(frozen=True)
class PointCell(Cell):
    p: Vec

    @property
    def dim(self) -> int:
        return 0

    def sample(self) -> Vec:
        return self.p

    def contains(self, q) -> bool:
        return tuple(q) == self.p

    def key(self):
        return ("p", self.p)

    def sort_key(self):
        return (0, self.p)

    def __str__(self) -> str:
        return f"point{self.p}"


@dataclass(frozen=True)
class SegCell(Cell):
    a: Vec
    b: Vec  # canonical: a < b lexicographically

    @property
    def dim(self) -> int:
        return 1

    def sample(self) -> Vec:
        return vscale(Fraction(1, 2), vadd(self.a, self.b))

    def contains(self, q) -> bool:
        q = tuple(q)
        d = vsub(self.b, self.a)
        r = vsub(q, self.a)
        # q = a + t d with 0 <= t <= 1
        for i in range(self.arity):
            if d[i] != 0:
                t = r[i] / d[i]
                return vadd(self.a, vscale(t, d)) == q and 0 <= t <= 1
        return q == self.a

    def key(self):
        return ("s", self.a, self.b)

    def sort_key(self):
        return (0, self.a, self.b)

    def endpoints(self) -> tuple[Vec, Vec]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"seg{self.a}->{self.b}"


@dataclass(frozen=True)
class RayCell(Cell):
    base: Vec
    dir: tuple[int, ...]  # primitive

    @property
    def dim(self) -> int:
        return 1

    def sample(self) -> Vec:
        return vadd(self.base, tuple(Fraction(d) for d in self.dir))

    def contains(self, q) -> bool:
        q = tuple(q)
        d = tuple(Fraction(x) for x in self.dir)
        r = vsub(q, self.base)
        for i in range(self.arity):
            if d[i] != 0:
                t = r[i] / d[i]
                return vadd(self.base, vscale(t, d)) == q and t >= 0
        return q == self.base

    def key(self):
        return ("r", self.base, self.dir)

    def sort_key(self):
        return (1, self.base, tuple(Fraction(x) for x in self.dir))

    def __str__(self) -> str:
        return f"ray{self.base}+t{self.dir}"


@dataclass(frozen=True)
class LineCell(Cell):
    base: Vec  # canonical: the point of the line closest to the origin
    dir: tuple[int, ...]  # primitive, first nonzero component positive

    @property
    def dim(self) -> int:
        return 1

    def sample(self) -> Vec:
        return self.base

    def contains(self, q) -> bool:
        q = tuple(q)
        d = tuple(Fraction(x) for x in self.dir)
        r = vsub(q, self.base)
        for i in range(self.arity):
            if d[i] != 0:
                t = r[i] / d[i]
                return vadd(self.base, vscale(t, d)) == q
        return q == self.base

    def key(self):
        return ("l", self.base, self.dir)

    def sort_key(self):
        return (2, self.base, tuple(Fraction(x) for x in self.dir))

    def __str__(self) -> str:
        return f"line{self.base}+t{self.dir}"


@dataclass(frozen=True)
class VRep:
    vertices: tuple[Vec, ...]
    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RegionCell(Cell):
    """A full-dimensional convex region, as irredundant weak constraints."""

    constraints: tuple[Constraint, ...]
    _vrep: Optional[VRep] = field(default=None, compare=False, hash=False)

    @property
    def dim(self) -> int:
        return self.arity

    def sample(self) -> Vec:
        strict = [Constraint(c.coeffs, c.rhs, True) for c in self.constraints]
        p = feasible_point(strict, self.arity)
        assert p is not None, "region cell lost its interior"
        return p

    def contains(self, q) -> bool:
        return all(c.holds(tuple(q)) for c in self.constraints)

    def key(self):
        return ("R", frozenset(_constraint_key(c) for c in self.constraints))

    def sort_key(self):
        return (0, tuple(sorted(_constraint_key(c) for c in self.constraints)))

    def vrep(self) -> VRep:
        if self._vrep is None:
            object.__setattr__(self, "_vrep", _region_vrep(self))
        return self._vrep

    def __str__(self) -> str:
        return f"region<{len(self.constraints)} halfplanes>"


def _constraint_key(c: Constraint):
    p = primitive(c.coeffs)
    scale = None
    for pi, ci in zip(p, c.coeffs):
        if pi != 0:
            scale = ci / pi
            break
    if scale < 0:
        return (tuple(-x for x in p), -c.rhs / scale)
    return (p, c.rhs / scale)


# -- construction from constraint systems -------------------------------------


def polyhedron(constraints: Iterable[Constraint], arity: int) -> Optional[Cell]:
    """The solution set of a weak system as a canonical cell, or None.

    Supports arity 1 and 2 (the exact-geometry range of the package).  In
    the plane, the boundary line of every constraint is clipped by the whole
    system: the set is empty when no boundary meets it, a point when every
    boundary meets it in a point, a 1-cell on a boundary whose opposite
    constraint is also present, and otherwise a region whose facets are the
    boundaries met in a 1-cell.
    """
    if arity not in (1, 2):
        raise ArityError(f"exact geometry supports arity 1 or 2, got {arity}")
    cs = [c for c in constraints if not is_zero(c.coeffs) or not c.holds((0,) * arity)]
    for c in cs:
        if is_zero(c.coeffs):
            return None  # an unsatisfiable constant constraint
    if arity == 1:
        return _clip_cell((_ZERO,), (_ONE,), None, None, cs)
    if not cs:
        return full_space(2)
    keys = [_constraint_key(c) for c in cs]
    present = set(keys)
    seen = set()
    facets = []
    point = None
    for c, k in zip(cs, keys):
        if k in seen:
            continue  # same boundary: clips alike, and the first one is kept
        seen.add(k)
        base, d = _boundary(c)
        clipped = clip_interval(base, d, None, None, cs)
        if clipped is None:
            continue
        lo, hi = clipped
        if lo is not None and lo == hi:
            point = vadd(base, vscale(lo, d))
        elif (tuple(-x for x in k[0]), -k[1]) in present:
            return _segmentish(2, lo, hi, base, d)  # pinched onto this line
        else:
            facets.append(c)
    if facets:
        return RegionCell(2, tuple(facets))
    return None if point is None else PointCell(2, point)


def full_space(arity: int) -> Cell:
    if arity == 1:
        return LineCell(1, (Fraction(0),), (1,))
    return RegionCell(2, tuple())


def _boundary(c: Constraint) -> tuple[Vec, Vec]:
    """A point and a direction of the boundary line of a 2D constraint."""
    a, b = c.coeffs
    base = (c.rhs / a, _ZERO) if a != 0 else (_ZERO, c.rhs / b)
    return base, (-b, a)


def _parallel(d1, d2) -> bool:
    return d1[0] * d2[1] - d1[1] * d2[0] == 0


def clip_interval(
    base: Vec,
    d: Vec,
    lo: Optional[Fraction],
    hi: Optional[Fraction],
    cs: Iterable[Constraint],
) -> Optional[tuple[Optional[Fraction], Optional[Fraction]]]:
    """Clip the parameters [lo, hi] of base + t*d by weak constraints.

    A None bound is unbounded.  Returns the clipped (lo, hi), or None when
    no parameter is left.
    """
    for c in cs:
        slope = dot(c.coeffs, d)
        off = dot(c.coeffs, base)
        if slope == 0:
            if off < c.rhs:
                return None
            continue
        t = (c.rhs - off) / slope
        if slope > 0:
            if lo is None or t > lo:
                lo = t
        elif hi is None or t < hi:
            hi = t
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _clip_cell(
    base: Vec,
    d: Vec,
    lo: Optional[Fraction],
    hi: Optional[Fraction],
    cs: Iterable[Constraint],
) -> Optional[Cell]:
    """The cell of base + t*d, t in [lo, hi], satisfying cs, or None."""
    clipped = clip_interval(base, d, lo, hi, cs)
    if clipped is None:
        return None
    return _segmentish(len(base), clipped[0], clipped[1], base, d)


def _segmentish(
    arity: int,
    lo: Optional[Fraction],
    hi: Optional[Fraction],
    base: Vec,
    direction: tuple[int, ...],
) -> Cell:
    d = tuple(Fraction(x) for x in direction)
    if lo is not None and hi is not None:
        if lo == hi:
            return PointCell(arity, vadd(base, vscale(lo, d)))
        a = vadd(base, vscale(lo, d))
        b = vadd(base, vscale(hi, d))
        return make_seg(a, b)
    if lo is not None:
        return RayCell(arity, vadd(base, vscale(lo, d)), primitive_signed(d))
    if hi is not None:
        return RayCell(
            arity, vadd(base, vscale(hi, d)), primitive_signed(tuple(-x for x in d))
        )
    return make_line(base, direction)


def primitive_signed(d: Sequence) -> tuple[int, ...]:
    """Primitive integer vector with the SAME direction as d."""
    p = primitive(tuple(Fraction(x) for x in d))
    for pi, di in zip(p, d):
        if di != 0:
            if (pi > 0) != (di > 0):
                return tuple(-x for x in p)
            return p
    return p


def make_seg(a: Vec, b: Vec) -> Cell:
    if a == b:
        return PointCell(len(a), a)
    if b < a:
        a, b = b, a
    return SegCell(len(a), a, b)


def make_line(base: Vec, direction: Sequence) -> LineCell:
    d = primitive(tuple(Fraction(x) for x in direction))
    dd = tuple(Fraction(x) for x in d)
    n2 = dot(dd, dd)
    t = -dot(dd, base) / n2
    foot = vadd(base, vscale(t, dd))  # closest point to the origin: canonical
    return LineCell(len(base), foot, d)


# -- cell intersection ---------------------------------------------------------


def _as_param(cell: Cell) -> tuple[Vec, Vec, Optional[Fraction], Optional[Fraction]]:
    """1-dim cell as (base, dir, lo, hi) with t in [lo,hi] (None = unbounded)."""
    if isinstance(cell, SegCell):
        return cell.a, vsub(cell.b, cell.a), _ZERO, _ONE
    if isinstance(cell, RayCell):
        return cell.base, tuple(Fraction(x) for x in cell.dir), _ZERO, None
    if isinstance(cell, LineCell):
        return cell.base, tuple(Fraction(x) for x in cell.dir), None, None
    raise TypeError(cell)


def cell_constraints(cell: Cell) -> list[Constraint]:
    """Weak constraints whose solution set is the cell."""
    n = cell.arity
    if isinstance(cell, PointCell):
        out = []
        for i in range(n):
            unit = tuple(Fraction(1 if j == i else 0) for j in range(n))
            out.append(Constraint(unit, cell.p[i]))
            out.append(Constraint(vscale(Fraction(-1), unit), -cell.p[i]))
        return out
    if isinstance(cell, RegionCell):
        return list(cell.constraints)
    base, d, lo, hi = _as_param(cell)
    out = []
    if n == 2:
        normal = tuple(Fraction(x) for x in perp(d))
        rhs = dot(normal, base)
        out.append(Constraint(normal, rhs))
        out.append(Constraint(vscale(Fraction(-1), normal), -rhs))
    # parameter bounds along the direction
    d2 = dot(d, d)
    if lo is not None:
        out.append(Constraint(d, dot(d, base) + lo * d2))
    if hi is not None:
        out.append(Constraint(vscale(Fraction(-1), d), -(dot(d, base) + hi * d2)))
    return out


def intersect_cells(c1: Cell, c2: Cell) -> Optional[Cell]:
    """The intersection of two cells as a canonical cell, or None."""
    if c1.arity != c2.arity:
        raise ArityError("cell arity mismatch")
    if isinstance(c1, PointCell):
        return c1 if c2.contains(c1.p) else None
    if isinstance(c2, PointCell):
        return c2 if c1.contains(c2.p) else None
    if c2.dim == 1:
        c1, c2 = c2, c1
    if c1.dim == 1:
        return _clip_cell(*_as_param(c1), cell_constraints(c2))
    return polyhedron(cell_constraints(c1) + cell_constraints(c2), c1.arity)


def cell_contains_cell(big: Cell, small: Cell) -> bool:
    inter = intersect_cells(big, small)
    return inter is not None and inter.key() == small.key()


def closures_touch(c1: Cell, c2: Cell) -> bool:
    return intersect_cells(c1, c2) is not None


# -- V-representation of regions ----------------------------------------------


def _region_vrep(region: RegionCell) -> VRep:
    cs = list(region.constraints)
    if not cs:
        return VRep((), (), ((1, 0), (0, 1)))
    normals = [primitive(c.coeffs) for c in cs]
    # vertices: feasible intersections of boundary pairs
    verts = set()
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            p = _line_line(cs[i].coeffs, cs[i].rhs, cs[j].coeffs, cs[j].rhs)
            if p is not None and region.contains(p):
                verts.add(p)
    # recession cone
    rank2 = any(not _parallel(n1, normals[0]) for n1 in normals)
    rays: list[tuple[int, ...]] = []
    lineality: list[tuple[int, ...]] = []
    if not rank2:
        a = normals[0]
        has_pos = any(primitive_signed(c.coeffs) == a for c in cs)
        has_neg = any(primitive_signed(c.coeffs) == tuple(-x for x in a) for c in cs)
        lineality = [perp(a)]
        if has_pos and has_neg:
            pass  # a strip: recession is the lineality line only
        else:
            rays = [a if has_pos else tuple(-x for x in a)]
    else:
        cands = set()
        for nvec in normals:
            for d in (perp(nvec), tuple(-x for x in perp(nvec))):
                if all(dot(tuple(map(Fraction, c.coeffs)), tuple(map(Fraction, d))) >= 0 for c in cs):
                    cands.add(d)
        if cands:
            ordered = sorted(cands)
            if len(ordered) == 1:
                rays = ordered
            else:
                # extreme rays = angular extremes of the (convex, <180 deg) fan
                rays = _angular_extremes(ordered)
    return VRep(tuple(sorted(verts)), tuple(sorted(rays)), tuple(sorted(lineality)))


def _angular_extremes(dirs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    best = None
    for a in dirs:
        for b in dirs:
            if a == b:
                continue
            cross = a[0] * b[1] - a[1] * b[0]
            if cross < 0:
                continue
            # all others must lie between a and b (counterclockwise)
            if all(
                (a[0] * d[1] - a[1] * d[0]) >= 0 and (d[0] * b[1] - d[1] * b[0]) >= 0
                for d in dirs
            ):
                best = [a, b]
    return best if best else dirs[:1]


def _line_line(a1: Vec, c1: Fraction, a2: Vec, c2: Fraction) -> Optional[Vec]:
    det = a1[0] * a2[1] - a1[1] * a2[0]
    if det == 0:
        return None
    x = (c1 * a2[1] - c2 * a1[1]) / det
    y = (a1[0] * c2 - a2[0] * c1) / det
    return (x, y)


def line_intersection(a1, c1, a2, c2):
    return _line_line(tuple(map(Fraction, a1)), Fraction(c1), tuple(map(Fraction, a2)), Fraction(c2))


# -- clipping against a box (for rendering) ------------------------------------


def clip_cell_to_box(
    cell: Cell, xmin: Fraction, xmax: Fraction, ymin: Fraction, ymax: Fraction
) -> Optional[Cell]:
    box = [
        Constraint(fvec(1, 0), xmin),
        Constraint(fvec(-1, 0), -xmax),
        Constraint(fvec(0, 1), ymin),
        Constraint(fvec(0, -1), -ymax),
    ]
    return polyhedron(cell_constraints(cell) + box, cell.arity)


def box_polygon(
    constraints: Sequence[Constraint],
    xmin: Fraction,
    xmax: Fraction,
    ymin: Fraction,
    ymax: Fraction,
) -> list[Vec]:
    """The region clipped to a box, as an ordered polygon (possibly empty)."""
    polygon: list[Vec] = [
        (xmin, ymin),
        (xmax, ymin),
        (xmax, ymax),
        (xmin, ymax),
    ]
    for c in constraints:
        if not polygon:
            return []
        out: list[Vec] = []
        m = len(polygon)
        for i in range(m):
            cur, nxt = polygon[i], polygon[(i + 1) % m]
            cur_in = dot(c.coeffs, cur) >= c.rhs
            nxt_in = dot(c.coeffs, nxt) >= c.rhs
            if cur_in:
                out.append(cur)
            if cur_in != nxt_in:
                d = vsub(nxt, cur)
                t = (c.rhs - dot(c.coeffs, cur)) / dot(c.coeffs, d)
                out.append(vadd(cur, vscale(t, d)))
        polygon = []
        for p in out:  # drop consecutive duplicates
            if not polygon or polygon[-1] != p:
                polygon.append(p)
        if len(polygon) > 1 and polygon[0] == polygon[-1]:
            polygon.pop()
    return polygon
