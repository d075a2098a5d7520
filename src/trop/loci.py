"""Algebraic sets: corner and total loci, components, facets and faces.

An algebraic set is cut out by a list of conditions, one per defining
polynomial (or pair of polynomials).  Its carrier is the cell complex of
magnitude vectors satisfying every condition; the set itself is closed
under changing ghost tags coordinatewise, so the carrier describes it
completely.  Facets are maximal connected subsets lying inside a single
binomial tie locus (or a ghost-monomial region, for total loci), and
faces are the nonempty intersections of facets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .complexes import (
    Arrangement,
    CellComplex,
    HyperLine,
    cross_tie_lines,
    occurring_tie_lines,
)
from .errors import ArityError, TropError
from .geom import (
    Cell,
    RegionCell,
    cell_contains_cell,
    closures_touch,
    full_space,
    intersect_cells,
    polyhedron,
)
from .linear import Constraint, Vec, feasible_point
from .poly import Point, TropicalPolynomial
from .values import st


@dataclass(frozen=True)
class Condition:
    """Membership test contributed by one defining polynomial (or pair)."""

    kind: str  # "corner" | "total" | "pair"
    f: TropicalPolynomial
    g: Optional[TropicalPolynomial] = None

    def lines(self) -> set[HyperLine]:
        out = set(occurring_tie_lines(self.f))
        if self.kind == "pair":
            assert self.g is not None
            out |= occurring_tie_lines(self.g)
            out |= cross_tie_lines(self.f, self.g)
        return out

    def needs_regions(self) -> bool:
        return self.kind == "total" and any(m.coeff.ghost for m in self.f.terms)

    def holds_at(self, mags: Sequence[Fraction]) -> bool:
        val, dom = self.f.eval_mag(mags)
        if self.kind == "corner":
            return len(dom) >= 2
        if self.kind == "total":
            return len(dom) >= 2 or any(self.f.terms[i].coeff.ghost for i in dom)
        assert self.g is not None
        gval, gdom = self.g.eval_mag(mags)
        return len(dom) >= 2 and len(gdom) >= 2 and val == gval

    def describe(self) -> dict:
        d = {"kind": self.kind, "f": str(self.f)}
        if self.g is not None:
            d["g"] = str(self.g)
        return d


@dataclass(frozen=True)
class Erasure:
    """Remove the relative interior of the facet tied by one term pair."""

    cond: int
    pair: tuple[int, int]

    def erases_at(self, f: TropicalPolynomial, mags: Sequence[Fraction]) -> bool:
        _, dom = f.eval_mag(mags)
        return set(dom) == set(self.pair)


@dataclass(frozen=True)
class Facet:
    label: tuple
    cells: tuple[Cell, ...]

    def contains_cell(self, cell: Cell) -> bool:
        return any(c.key() == cell.key() for c in self.cells)

    @property
    def dim(self) -> int:
        return max(c.dim for c in self.cells)

    def sample(self) -> Vec:
        best = max(self.cells, key=lambda c: c.dim)
        return best.sample()


class AlgebraicSet:
    """Solution set of a family of corner/total/pair conditions."""

    def __init__(
        self,
        arity: int,
        conditions: Sequence[Condition],
        erasures: Sequence[Erasure] = (),
    ):
        self.arity = arity
        self.conditions = tuple(conditions)
        self.erasures = tuple(erasures)
        for c in self.conditions:
            if c.f.arity != arity or (c.g is not None and c.g.arity != arity):
                raise ArityError("condition arity mismatch")
        if arity <= 2:
            self.complex = self._build()
        else:
            self.complex = None  # witness-point mode only

    # -- construction ------------------------------------------------------

    def _build(self) -> CellComplex:
        if not self.conditions:
            return CellComplex(self.arity, [full_space(self.arity)], [])
        arr = Arrangement(self.arity, [l for c in self.conditions for l in c.lines()])
        selected = []
        for cell in arr.cells:
            s = cell.sample()
            if not all(c.holds_at(s) for c in self.conditions):
                continue
            if any(
                e.erases_at(self.conditions[e.cond].f, s) for e in self.erasures
            ):
                continue
            selected.append(cell)
        selected.extend(self._full_dim_regions())
        return CellComplex(self.arity, drop_interior_cells(selected), self._polys())

    def _full_dim_regions(self) -> list[Cell]:
        """Two-dimensional pieces: ghost-coefficient dominance regions.

        The maximum is attained by >= 2 pure parts only on tie lines, so a
        full-dimensional piece needs a ghost-coefficient term dominating on
        every condition; such a piece is an intersection of convex
        dominance regions.
        """
        from itertools import product as iproduct

        if self.arity != 2 or any(c.kind != "total" for c in self.conditions):
            return []
        choices = []
        for cond in self.conditions:
            ghost_ids = [
                i for i, m in enumerate(cond.f.terms) if m.coeff.ghost
            ]
            if not ghost_ids:
                return []
            choices.append(ghost_ids)
        out = []
        for combo in iproduct(*choices):
            cons = [
                c for cond, i in zip(self.conditions, combo) for c in cond.f.dominance(i)
            ]
            cell = polyhedron(cons, 2)
            if cell is not None and cell.dim == 2:
                out.append(cell)
        return out

    def _polys(self) -> list[TropicalPolynomial]:
        out = []
        for c in self.conditions:
            out.append(c.f)
            if c.g is not None:
                out.append(c.g)
        return out

    # -- classification ------------------------------------------------------

    def is_ambient(self) -> bool:
        return not self.conditions

    def is_point_like(self) -> bool:
        if self.complex is None:
            return False
        return bool(self.complex.cells) and all(
            c.dim == 0 for c in self.complex.cells
        )

    def is_tangible_hypersurface(self) -> bool:
        return (
            len(self.conditions) == 1
            and self.conditions[0].kind == "corner"
            and not self.erasures
            and self.conditions[0].f.is_tangible()
        )

    def _require_complex(self) -> CellComplex:
        if self.complex is None:
            raise ArityError(
                f"exact geometry needs arity <= 2; this set of arity {self.arity} "
                "supports membership at witness points only"
            )
        return self.complex

    def dim(self) -> int:
        if self.is_ambient():
            return self.arity
        return self._require_complex().dim()

    def is_empty(self) -> bool:
        return not self.is_ambient() and self._require_complex().is_empty()

    # -- membership ----------------------------------------------------------

    def contains_mags(self, mags: Sequence[Fraction]) -> bool:
        mags = tuple(Fraction(x) for x in mags)
        if len(mags) != self.arity:
            raise ArityError("point arity mismatch")
        if not all(c.holds_at(mags) for c in self.conditions):
            return False
        return not any(
            e.erases_at(self.conditions[e.cond].f, mags) for e in self.erasures
        )

    def contains_point(self, p: Union[Point, Sequence]) -> bool:
        if isinstance(p, Point):
            return self.contains_mags(p.magnitudes)
        return self.contains_mags(tuple(Fraction(x) for x in p))

    # -- set algebra -----------------------------------------------------------

    def intersect(self, other: "AlgebraicSet") -> "AlgebraicSet":
        if self.arity != other.arity:
            raise ArityError("cannot intersect sets of different arity")
        shift = len(self.conditions)
        erasures = list(self.erasures) + [
            Erasure(e.cond + shift, e.pair) for e in other.erasures
        ]
        return AlgebraicSet(
            self.arity, self.conditions + other.conditions, erasures
        )

    def erase_facet(self, cond: int, i: int, j: int) -> "AlgebraicSet":
        if not 0 <= cond < len(self.conditions):
            raise TropError(
                f"erase: condition {cond} out of range (the set has "
                f"{len(self.conditions)})"
            )
        terms = len(self.conditions[cond].f.terms)
        if not (0 <= i < terms and 0 <= j < terms):
            raise TropError(
                f"erase: term pair ({i}, {j}) out of range for condition {cond} "
                f"with {terms} terms"
            )
        return AlgebraicSet(
            self.arity,
            self.conditions,
            self.erasures + (Erasure(cond, (min(i, j), max(i, j))),),
        )

    def covers(self, other: "AlgebraicSet") -> bool:
        if self.is_ambient():
            return True
        if other.is_ambient():
            return False
        return self._require_complex().covers(other._require_complex())

    def same_set(self, other: "AlgebraicSet") -> bool:
        return self.covers(other) and other.covers(self)

    def proper_superset_of(self, other: "AlgebraicSet") -> bool:
        return self.covers(other) and not other.covers(self)

    # -- facets and faces --------------------------------------------------------

    def facets(self) -> list[Facet]:
        cells = self._require_complex().cells
        if self.is_ambient():
            return [Facet(("ambient",), tuple(cells))]
        if not cells:
            return []
        labels_per_cell: list[set[tuple]] = []
        for cell in cells:
            s = cell.sample()
            labels: set[tuple] = set()
            for ci, cond in enumerate(self.conditions):
                labels |= _cell_labels(ci, cond, s)
            labels_per_cell.append(labels)
        all_label_sets = [
            sorted({lab for labs in labels_per_cell for lab in labs if lab[1] == ci})
            for ci in range(len(self.conditions))
        ]
        combos = _combos(all_label_sets)
        masks: dict[tuple, tuple[int, ...]] = {}
        for combo in combos:
            mask = tuple(
                i
                for i in range(len(cells))
                if all(lab in labels_per_cell[i] for lab in combo)
            )
            if mask:
                masks.setdefault(combo, mask)
        seen: dict[tuple, tuple] = {}
        for combo in sorted(masks):
            for comp in _connected_components(masks[combo], cells):
                seen.setdefault(comp, combo)
        return [
            Facet(seen[comp], tuple(cells[i] for i in comp))
            for comp in sorted(seen)
        ]

    def faces(self) -> list[tuple[Cell, ...]]:
        """Nonempty intersections of distinct facets, closed under meets."""
        facet_sets = [_canon_union(f.cells) for f in self.facets()]
        facet_keys = {_union_key(fs) for fs in facet_sets}
        found: dict[tuple, tuple[Cell, ...]] = {}
        frontier = list(facet_sets)
        while frontier:
            new_frontier = []
            for fs in frontier:
                for other in facet_sets:
                    pieces = _intersect_cell_unions(fs, other)
                    if not pieces:
                        continue
                    key = _union_key(pieces)
                    if key in facet_keys or key in found:
                        continue
                    found[key] = pieces
                    new_frontier.append(pieces)
            frontier = new_frontier
        return [found[k] for k in sorted(found)]

    # -- presentation ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "conditions": [c.describe() for c in self.conditions],
        }
        if self.erasures:
            out["erased"] = [
                {"condition": e.cond, "pair": list(e.pair)} for e in self.erasures
            ]
        if self.complex is not None:
            out.update(self.complex.to_json())
        else:
            out["arity"] = self.arity
            out["witness_mode"] = True
        return out

    def describe(self) -> str:
        parts = []
        for c in self.conditions:
            if c.kind == "pair":
                parts.append(f"pair({c.f}, {c.g})")
            else:
                parts.append(f"{c.kind}({c.f})")
        return " & ".join(parts) if parts else f"F^{self.arity}"


def _cell_labels(ci: int, cond: Condition, sample: Vec) -> set[tuple]:
    _, dom = cond.f.eval_mag(sample)
    labels: set[tuple] = set()
    for a in range(len(dom)):
        for b in range(a + 1, len(dom)):
            labels.add(("b", ci, dom[a], dom[b]))
    if cond.kind == "total":
        for i in dom:
            if cond.f.terms[i].coeff.ghost:
                labels.add(("g", ci, i))
    if cond.kind == "pair":
        assert cond.g is not None
        _, gdom = cond.g.eval_mag(sample)
        for a in range(len(gdom)):
            for b in range(a + 1, len(gdom)):
                labels.add(("B", ci, gdom[a], gdom[b]))
    return labels


def _combos(label_sets: list[list[tuple]]) -> list[tuple]:
    combos: list[tuple] = [()]
    for labels in label_sets:
        if not labels:
            continue
        combos = [c + (lab,) for c in combos for lab in labels]
    return [c for c in combos if c]


def _connected_components(
    mask: tuple[int, ...], cells: Sequence[Cell]
) -> list[tuple[int, ...]]:
    remaining = set(mask)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        remaining.discard(seed)
        grew = True
        while grew:
            grew = False
            for i in list(remaining):
                if any(closures_touch(cells[i], cells[j]) for j in comp):
                    comp.add(i)
                    remaining.discard(i)
                    grew = True
        comps.append(tuple(sorted(comp)))
    return comps


def drop_interior_cells(cells: Sequence[Cell]) -> list[Cell]:
    """Remove lower-dimensional cells strictly inside full-dimensional ones.

    Inside the interior of a region the dominance structure is constant, so
    arrangement pieces that fall strictly inside add no structure to the
    union.  Cells touching a region's boundary are kept.
    """
    regions = [c for c in cells if isinstance(c, RegionCell)]
    if not regions:
        return list(cells)

    def strict_inside(cell: Cell) -> bool:
        s = cell.sample()
        for r in regions:
            if all(
                Constraint(c.coeffs, c.rhs, True).holds(s)
                for c in r.constraints
            ):
                return True
        return False

    return [
        c
        for c in cells
        if isinstance(c, RegionCell) or not strict_inside(c)
    ]


def _canon_union(cells: Sequence[Cell]) -> tuple[Cell, ...]:
    """Drop cells contained in other cells of the union; sort canonically."""
    vals = list({c.key(): c for c in cells}.values())
    kept = [
        c
        for c in vals
        if not any(
            c2.key() != c.key() and cell_contains_cell(c2, c) for c2 in vals
        )
    ]
    return tuple(sorted(kept, key=lambda c: (c.dim, c.sort_key())))


def _intersect_cell_unions(
    xs: Sequence[Cell], ys: Sequence[Cell]
) -> tuple[Cell, ...]:
    pieces: dict = {}
    for a in xs:
        for b in ys:
            c = intersect_cells(a, b)
            if c is not None:
                pieces[c.key()] = c
    return _canon_union(list(pieces.values()))


def _union_key(cells: Sequence[Cell]) -> tuple:
    return tuple(sorted((c.dim, c.sort_key()) for c in cells))


# -- public constructors --------------------------------------------------------


def corner_locus(f: TropicalPolynomial) -> AlgebraicSet:
    return AlgebraicSet(f.arity, [Condition("corner", f)])


def total_locus(f: TropicalPolynomial) -> AlgebraicSet:
    return AlgebraicSet(f.arity, [Condition("total", f)])


def corner_locus_family(polys: Sequence[TropicalPolynomial]) -> AlgebraicSet:
    if not polys:
        raise TropError("a locus needs at least one polynomial")
    return AlgebraicSet(polys[0].arity, [Condition("corner", f) for f in polys])


def corner_locus_pair(
    f: TropicalPolynomial, g: TropicalPolynomial
) -> AlgebraicSet:
    if f == g:
        return corner_locus(f)
    return AlgebraicSet(f.arity, [Condition("pair", f, g)])


def intersect(x: AlgebraicSet, y: AlgebraicSet) -> AlgebraicSet:
    return x.intersect(y)


def ambient(arity: int) -> AlgebraicSet:
    return AlgebraicSet(arity, [])


def nu_fiber(point: Union[Point, Sequence]) -> AlgebraicSet:
    mags = point.magnitudes if isinstance(point, Point) else tuple(
        Fraction(x) for x in point
    )
    n = len(mags)
    polys = []
    for i in range(n):
        exps_var = tuple(Fraction(1 if j == i else 0) for j in range(n))
        polys.append(
            TropicalPolynomial(
                n, [(exps_var, st(0)), ((Fraction(0),) * n, st(mags[i]))]
            )
        )
    return corner_locus_family(polys)


def components(
    f: TropicalPolynomial,
) -> list[tuple[int, Optional[Cell], bool]]:
    """Closed dominance regions per term, with the tangibility flag."""
    out = []
    for i in range(len(f.terms)):
        cell = polyhedron(f.dominance(i), f.arity)
        out.append((i, cell, f.terms[i].coeff.tangible))
    return out


@dataclass
class PrincipalOpen:
    """Complement of a corner locus; open and dense."""

    f: TropicalPolynomial
    locus: AlgebraicSet = field(init=False)

    def __post_init__(self) -> None:
        self.locus = corner_locus(self.f)

    def contains_mags(self, mags: Sequence[Fraction]) -> bool:
        return not self.locus.contains_mags(mags)

    def is_everything(self) -> bool:
        return self.locus.is_empty()

    def sample(self) -> Optional[Vec]:
        for i in range(len(self.f.terms)):
            p = feasible_point(self.f.dominance(i, strict=True), self.f.arity)
            if p is not None:
                return p
        return None


def principal_open(f: TropicalPolynomial) -> PrincipalOpen:
    return PrincipalOpen(f)
