"""Arrangements of rational tie lines and cell complexes built from them.

The dominance structure of a family of tropical polynomials is piecewise
constant on the arrangement of the tie lines that occur: those on which
two terms co-dominate along a 1-cell (in one variable, at a point).  They
carry the edges of the regular subdivision dual to each polynomial, so
the arrangement grows with the locus, not with all pairwise ties.  Cells
are closed convex pieces whose relative interiors carry constant dominant
sets; every cell records one exact rational sample point in its relative
interior, and annotations are recomputed from samples on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import ArityError
from .geom import (
    Cell,
    LineCell,
    PointCell,
    RayCell,
    RegionCell,
    SegCell,
    _as_param,
    cell_constraints,
    cell_contains_cell,
    clip_interval,
    full_space,
    line_intersection,
    make_line,
    make_seg,
    perp,
    primitive_signed,
)
from .linear import Vec, dot, is_zero, primitive, vadd, vscale, vsub
from .poly import TropicalPolynomial

_ZERO = Fraction(0)


@dataclass(frozen=True)
class HyperLine:
    """a . x = c with a primitive integer normal, first nonzero positive."""

    a: tuple[int, ...]
    c: Fraction

    @staticmethod
    def of(normal: Sequence, offset) -> "HyperLine":
        nv = tuple(Fraction(x) for x in normal)
        if is_zero(nv):
            raise ValueError("degenerate hyperplane")
        p = primitive(nv)
        scale = None
        for pi, ni in zip(p, nv):
            if pi != 0:
                scale = ni / pi
                break
        return HyperLine(p, Fraction(offset) / scale)

    def form_value(self, point: Sequence[Fraction]) -> Fraction:
        return dot(tuple(Fraction(x) for x in self.a), tuple(point)) - self.c

    def direction(self) -> tuple[int, ...]:
        return perp(self.a)

    def a_frac(self) -> Vec:
        return tuple(Fraction(x) for x in self.a)


def tie_lines(f: TropicalPolynomial) -> set[HyperLine]:
    """All pairwise tie hyperplanes of the magnitude forms of f."""
    out: set[HyperLine] = set()
    forms = f.forms()
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            normal = vsub(forms[i].coeffs, forms[j].coeffs)
            out.add(HyperLine.of(normal, forms[j].const - forms[i].const))
    return out


def cross_tie_lines(
    f: TropicalPolynomial, g: TropicalPolynomial
) -> set[HyperLine]:
    """Tie hyperplanes between a term of f and a term of g (distinct forms)."""
    out: set[HyperLine] = set()
    for mf in f.terms:
        for mg in g.terms:
            normal = vsub(mf.exps, mg.exps)
            if is_zero(normal):
                continue
            out.add(
                HyperLine.of(normal, mg.coeff.magnitude - mf.coeff.magnitude)
            )
    return out


@lru_cache(maxsize=128)
def occurring_tie_lines(f: TropicalPolynomial) -> frozenset[HyperLine]:
    """The tie lines of f on which two terms co-dominate along a 1-cell.

    In one variable: the tie points where the two terms co-dominate.  A
    pair (i, j) not already kept clips its line by form_i >= form_k for the
    other terms k; the line occurs when a positive or unbounded parameter
    interval is left.

    Their arrangement gives the same complexes as all pairwise ties.  Every
    vertex where a dominant set changes is a crossing of two occurring
    lines: a tie that holds only at a point lies where non-collinear
    co-dominant terms meet, and occurring lines cross there.  Every other
    crossing lies off the locus or inside an edge, where
    `_prune_redundant_vertices` merges it as before.

    Memoized, since polynomials are immutable and lattice operations and
    `preceq` ask again for the lines of the same leaves.
    """
    forms = f.forms()
    out: set[HyperLine] = set()
    for i in range(len(forms)):
        dominant = f.dominance(i)  # form_i >= form_j holds on the whole line
        for j in range(i + 1, len(forms)):
            normal = vsub(forms[i].coeffs, forms[j].coeffs)
            line = HyperLine.of(normal, forms[j].const - forms[i].const)
            if line in out:
                continue
            d = line.direction() if f.arity == 2 else (0,)
            clipped = clip_interval(_point_on(line), d, None, None, dominant)
            if clipped is not None and (None in clipped or clipped[0] < clipped[1]):
                out.add(line)
    return frozenset(out)


class Arrangement:
    """The cells cut out of the plane (or line) by a finite set of lines."""

    def __init__(self, arity: int, lines: Iterable[HyperLine]):
        if arity not in (1, 2):
            raise ArityError(f"arrangements support arity 1 or 2, got {arity}")
        self.arity = arity
        self.lines: list[HyperLine] = sorted(set(lines), key=lambda l: (l.a, l.c))
        self.cells: list[Cell] = []
        if arity == 1:
            self._build_1d()
        else:
            self._build_2d()

    def _build_1d(self) -> None:
        breaks = sorted({line.c / Fraction(line.a[0]) for line in self.lines})
        cells: list[Cell] = [PointCell(1, (b,)) for b in breaks]
        if not breaks:
            cells.append(full_space(1))
        else:
            cells.append(RayCell(1, (breaks[0],), (-1,)))
            for left, right in zip(breaks, breaks[1:]):
                cells.append(make_seg((left,), (right,)))
            cells.append(RayCell(1, (breaks[-1],), (1,)))
        self.cells = cells

    def _build_2d(self) -> None:
        verts: set[Vec] = set()
        on_line: dict[int, set[Vec]] = {i: set() for i in range(len(self.lines))}
        for i in range(len(self.lines)):
            for j in range(i + 1, len(self.lines)):
                p = line_intersection(
                    self.lines[i].a, self.lines[i].c, self.lines[j].a, self.lines[j].c
                )
                if p is not None:
                    verts.add(p)
                    on_line[i].add(p)
                    on_line[j].add(p)
        cells: list[Cell] = [PointCell(2, v) for v in sorted(verts)]
        for i, line in enumerate(self.lines):
            d = tuple(Fraction(x) for x in line.direction())
            pts = sorted(on_line[i], key=lambda p: dot(d, p))
            if not pts:
                cells.append(make_line(_point_on(line), line.direction()))
                continue
            cells.append(RayCell(2, pts[0], primitive_signed(vscale(Fraction(-1), d))))
            cells.extend(make_seg(a, b) for a, b in zip(pts, pts[1:]))
            cells.append(RayCell(2, pts[-1], primitive_signed(d)))
        self.cells = cells

    def side_samples(self) -> list[Vec]:
        """Points that meet every 2-cell of a planar arrangement.

        Every 2-cell has a 1-cell on its boundary.  Each 1-cell's sample
        moves off its line both ways along the normal, by half the distance
        to the nearest other line on that normal.  Without lines the plane
        is one 2-cell, met at the origin.
        """
        if not self.lines:
            return [(_ZERO, _ZERO)]
        out = []
        for cell in self.cells:
            if cell.dim != 1:
                continue
            m = cell.sample()
            n = perp(_as_param(cell)[1])
            ts = [
                abs(l.form_value(m) / dot(l.a_frac(), n))
                for l in self.lines
                if dot(l.a_frac(), n) != 0 and l.form_value(m) != 0
            ]
            step = vscale(min(ts, default=Fraction(2)) / 2, n)
            out += [vadd(m, step), vsub(m, step)]
        return out


def _point_on(line: HyperLine) -> Vec:
    a = line.a_frac()
    n2 = dot(a, a)
    return vscale(line.c / n2, a)


def annotate(
    cells: Sequence[Cell], polys: Sequence[TropicalPolynomial]
) -> list[list[tuple[int, ...]]]:
    """Per cell, per polynomial: the ids of the magnitude-dominant terms."""
    out = []
    for cell in cells:
        s = cell.sample()
        out.append([tuple(f.eval_mag(s)[1]) for f in polys])
    return out


class CellComplex:
    """A finite set of closed convex cells with stable canonical ordering.

    The 1-skeleton is presented through `vertices` and `edges` (segments and
    rays only; full lines are split at a canonical base point).  Cells carry
    per-polynomial dominant-term annotations.
    """

    def __init__(
        self,
        arity: int,
        cells: Iterable[Cell],
        polys: Sequence[TropicalPolynomial] = (),
    ):
        split: list[Cell] = []
        for c in cells:
            if isinstance(c, LineCell):
                split.append(PointCell(arity, c.base))
                split.append(RayCell(arity, c.base, c.dir))
                split.append(
                    RayCell(arity, c.base, tuple(-x for x in c.dir))
                )
            else:
                split.append(c)
        dedup: dict = {}
        for c in split:
            dedup[c.key()] = c
        pruned = _prune_redundant_vertices(arity, list(dedup.values()), polys)
        ordered = sorted(pruned, key=lambda c: (c.dim, c.sort_key()))
        self.arity = arity
        self.cells: tuple[Cell, ...] = tuple(ordered)
        self.polys: tuple[TropicalPolynomial, ...] = tuple(polys)
        self.annotations = annotate(self.cells, self.polys)

    # -- structure ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.cells

    def dim(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def vertex_list(self) -> list[Vec]:
        vs: set[Vec] = set()
        for c in self.cells:
            if isinstance(c, PointCell):
                vs.add(c.p)
            elif isinstance(c, SegCell):
                vs.add(c.a)
                vs.add(c.b)
            elif isinstance(c, RayCell):
                vs.add(c.base)
        return sorted(vs)

    def contains(self, mags: Sequence[Fraction]) -> bool:
        p = tuple(Fraction(x) for x in mags)
        return any(c.contains(p) for c in self.cells)

    def covers_cell(self, cell: Cell) -> bool:
        """Whether the union of this complex's cells contains `cell`."""
        if isinstance(cell, PointCell):
            return self.contains(cell.p)
        if cell.dim == 1:
            return _covered_1d(cell, self.cells)
        return any(
            c.dim == cell.arity and cell_contains_cell(c, cell) for c in self.cells
        )

    def covers(self, other: "CellComplex") -> bool:
        return all(self.covers_cell(c) for c in other.cells)

    def same_set(self, other: "CellComplex") -> bool:
        return self.covers(other) and other.covers(self)

    # -- serialization -------------------------------------------------------

    def cell_names(self) -> list[str]:
        """The names `to_json` gives the cells, in order: v<vertex id>, then
        e<i> and f<i> counting edges and faces."""
        vid = {v: i for i, v in enumerate(self.vertex_list())}
        names = []
        seen = {1: 0, 2: 0}
        for c in self.cells:
            if c.dim == 0:
                names.append(f"v{vid[c.p]}")
            else:
                names.append(f"{'ef'[c.dim - 1]}{seen[c.dim]}")
                seen[c.dim] += 1
        return names

    def to_json(self) -> dict:
        verts = self.vertex_list()
        vid = {v: i for i, v in enumerate(verts)}
        edges = []
        faces = []
        for c in self.cells:
            if isinstance(c, SegCell):
                edges.append({"v": [vid[c.a], vid[c.b]]})
            elif isinstance(c, RayCell):
                edges.append({"v": vid[c.base], "dir": list(c.dir)})
            elif isinstance(c, RegionCell):
                vrep = c.vrep()
                faces.append(
                    {
                        "vertices": [vid[v] for v in vrep.vertices if v in vid],
                        "cone": [list(r) for r in vrep.rays]
                        + [list(l) for l in vrep.lineality]
                        + [[-l[0], -l[1]] for l in vrep.lineality],
                    }
                )
        cell_names = self.cell_names()
        ann: dict[str, dict[str, list[int]]] = {}
        for pi in range(len(self.polys)):
            ann[str(pi)] = {
                cell_names[ci]: list(self.annotations[ci][pi])
                for ci in range(len(self.cells))
            }
        return {
            "arity": self.arity,
            "vertices": [
                [[v[i].numerator, v[i].denominator] for i in range(self.arity)]
                for v in verts
            ],
            "edges": edges,
            "faces": faces,
            "annotations": ann,
        }


def _prune_redundant_vertices(
    arity: int, cells: list[Cell], polys: Sequence[TropicalPolynomial]
) -> list[Cell]:
    """Merge collinear 1-cells across vertices that change nothing.

    A vertex is redundant when exactly two 1-cells end there, they are
    collinear, and the dominant sets of every polynomial agree on the
    vertex and both neighbors (a tie line of the arrangement crossed the
    carrier without being active there).
    """

    def dominants(sample: Vec) -> tuple:
        return tuple(tuple(f.eval_mag(sample)[1]) for f in polys)

    changed = True
    while changed:
        changed = False
        points = [c for c in cells if isinstance(c, PointCell)]
        for v in points:
            attached = []
            for c in cells:
                if isinstance(c, SegCell) and (c.a == v.p or c.b == v.p):
                    attached.append(c)
                elif isinstance(c, RayCell) and c.base == v.p:
                    attached.append(c)
            if len(attached) != 2:
                continue
            c1, c2 = attached
            if isinstance(c1, RayCell) and isinstance(c2, RayCell):
                continue  # opposite rays stay split at their base
            merged = _merge_collinear(v.p, c1, c2)
            if merged is None:
                continue
            dv = dominants(v.p)
            if dv != dominants(c1.sample()) or dv != dominants(c2.sample()):
                continue
            cells = [
                c
                for c in cells
                if c.key() not in (v.key(), c1.key(), c2.key())
            ] + [merged]
            changed = True
            break
    return cells


def _merge_collinear(v: Vec, c1: Cell, c2: Cell) -> Optional[Cell]:
    def other_end(c: Cell):
        if isinstance(c, SegCell):
            return c.a if c.b == v else c.b
        return None  # ray: unbounded on the far side

    def dir_from_v(c: Cell) -> Vec:
        if isinstance(c, SegCell):
            return vsub(other_end(c), v)
        return tuple(Fraction(x) for x in c.dir)

    d1, d2 = dir_from_v(c1), dir_from_v(c2)
    if len(v) == 2 and d1[0] * d2[1] - d1[1] * d2[0] != 0:
        return None
    # the two cells must extend to opposite sides of v
    if dot(d1, d2) >= 0:
        return None
    e1, e2 = other_end(c1), other_end(c2)
    if e1 is not None and e2 is not None:
        return make_seg(e1, e2)
    if e1 is None and e2 is not None:
        return RayCell(len(v), e2, c1.dir)  # type: ignore[union-attr]
    if e2 is None and e1 is not None:
        return RayCell(len(v), e1, c2.dir)  # type: ignore[union-attr]
    return None


def _covered_1d(cell: Cell, cells: Sequence[Cell]) -> bool:
    """Whether the union of `cells` covers the 1-dimensional `cell` exactly.

    Works on the parameter interval of the cell; a None bound is unbounded.
    """
    base, d, lo, hi = _as_param(cell)
    pieces = []
    for other in cells:
        if other.dim < 1:
            continue
        clipped = clip_interval(base, d, lo, hi, cell_constraints(other))
        if clipped is not None and (clipped[0] is None or clipped[0] != clipped[1]):
            pieces.append(clipped)
    pieces.sort(key=lambda iv: (iv[0] is not None, iv[0] or _ZERO))
    reach = lo  # covered from lo up to here; None: nothing yet, lo unbounded
    for t0, t1 in pieces:
        if t0 is not None and (reach is None or t0 > reach):
            return False
        if t1 is None:
            return True
        if reach is None or t1 > reach:
            reach = t1
    return hi is not None and reach is not None and reach >= hi
