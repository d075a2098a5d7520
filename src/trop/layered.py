"""Layered semantics: layering maps, layered algebraic sets, lattice order.

The layering map of a polynomial assigns to each point the sort of its
layered evaluation; for layer-1 coefficients at tangible points this is
the number of magnitude-maximizing terms.  A layered algebraic set is the
locus where the layering map of a family exceeds 1, carrying the layer
value on every cell.  Joins take cellwise maxima of layering maps, meets
take minima, and the resulting partial order is Noetherian: every strict
descent lowers some cell's layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .complexes import Arrangement, CellComplex, occurring_tie_lines
from .errors import ArityError, TropError
from .geom import Cell, _as_param, polyhedron
from .linear import Constraint, Vec, vadd, vscale
from .loci import drop_interior_cells
from .poly import LayeredPolynomial, TropicalPolynomial, layered
from .values import LAYER_INF, Layer, LayeredValue, format_layer


def layering_of(
    f: Union[TropicalPolynomial, LayeredPolynomial],
    point: Sequence,
) -> Layer:
    """The sort of the layered evaluation of f at the point."""
    lf = layered(f)
    coords = [
        c if isinstance(c, LayeredValue) else LayeredValue(Fraction(c), 1)
        for c in point
    ]
    return lf.eval(coords).layer


def _phi_at(f: LayeredPolynomial, mags: Vec) -> Layer:
    """Layering map at a tangible point: layers of the dominant terms add."""
    _, dom = f.base.eval_mag(mags)
    total: Layer = 0
    for i in dom:
        if f.layers[i] is LAYER_INF:
            return LAYER_INF
        total += f.layers[i]
    return total


@dataclass(frozen=True)
class LayerExpr:
    """A layering map built from families by pointwise min and max."""

    op: str  # "family" | "max" | "min"
    polys: tuple[LayeredPolynomial, ...] = ()
    left: Optional["LayerExpr"] = None
    right: Optional["LayerExpr"] = None

    @staticmethod
    def family(polys: Iterable[Union[TropicalPolynomial, LayeredPolynomial]]):
        ps = tuple(layered(f) for f in polys)
        if not ps:
            raise TropError("a layering map needs at least one polynomial")
        return LayerExpr("family", ps)

    def phi(self, mags: Sequence[Fraction]) -> Layer:
        mags = tuple(Fraction(x) for x in mags)
        if self.op == "family":
            return min(_phi_at(f, mags) for f in self.polys)
        a = self.left.phi(mags)
        b = self.right.phi(mags)
        return max(a, b) if self.op == "max" else min(a, b)

    def leaf_polys(self) -> list[LayeredPolynomial]:
        if self.op == "family":
            return list(self.polys)
        return self.left.leaf_polys() + self.right.leaf_polys()

    @property
    def arity(self) -> int:
        return self.leaf_polys()[0].arity


class LayeredAlgebraicSet:
    """The graph of a layering map restricted to layers above 1."""

    def __init__(self, expr: LayerExpr):
        self.expr = expr
        self.arity = expr.arity
        if self.arity not in (1, 2):
            raise ArityError("layered sets support arity 1 or 2")
        leafs = expr.leaf_polys()
        arr = _leaf_arrangement(self.arity, leafs)
        selected = [c for c in arr.cells if expr.phi(c.sample()) > 1]
        selected.extend(self._full_dim_regions(leafs))
        selected = drop_interior_cells(selected)
        self.complex = CellComplex(self.arity, selected, [lf.base for lf in leafs])
        self.layers: tuple[Layer, ...] = tuple(
            expr.phi(c.sample()) for c in self.complex.cells
        )

    def _full_dim_regions(self, leafs: Sequence[LayeredPolynomial]) -> list[Cell]:
        """Full-dimensional pieces: candidate regions sampled through phi
        (see _region_systems)."""
        if self.arity != 2:
            return []
        if all(all(l == 1 for l in lf.layers) for lf in leafs):
            return []
        out = []
        for cons in _region_systems(self.expr):
            if not cons:
                continue
            cell = polyhedron(cons, 2)
            if cell is not None and cell.dim == 2 and self.expr.phi(cell.sample()) > 1:
                out.append(cell)
        return out

    # -- views ---------------------------------------------------------------

    def layer_at(self, mags: Sequence[Fraction]) -> Layer:
        """The layering-map value at any point (1 when off the carrier)."""
        return self.expr.phi(mags)

    def underline(self) -> CellComplex:
        """The projection forgetting layers."""
        return self.complex

    def is_empty(self) -> bool:
        return self.complex.is_empty()

    def cells_with_layers(self) -> list[tuple[Cell, Layer]]:
        return list(zip(self.complex.cells, self.layers))

    def to_json(self) -> dict:
        out = self.complex.to_json()
        names = self.complex.cell_names()
        out["layers"] = {
            names[i]: ("inf" if l is LAYER_INF else l)
            for i, l in enumerate(self.layers)
        }
        return out

    def __str__(self) -> str:
        pieces = ", ".join(
            f"{c}@{format_layer(l)}" for c, l in self.cells_with_layers()
        )
        return f"layered[{pieces}]"


def _leaf_arrangement(arity: int, leafs: Sequence[LayeredPolynomial]) -> Arrangement:
    """The arrangement of the tie lines that occur for the leaf polynomials."""
    return Arrangement(arity, [l for lf in leafs for l in occurring_tie_lines(lf.base)])


def _region_systems(expr: LayerExpr) -> list[list[Constraint]]:
    """Constraint systems of the regions where the map may exceed 1.

    A full-dimensional piece needs a layer>1 coefficient dominating on every
    polynomial a family or a min takes the minimum over (the product of
    their choices), but on only one side of a max (the union of the sides).
    Each choice is a convex dominance region.  A family with a member whose
    layers are all 1 has no such piece: that member's map is 1 off its locus.
    """
    if expr.op == "max":
        return _region_systems(expr.left) + _region_systems(expr.right)
    if expr.op == "min":
        right = _region_systems(expr.right)
        return [a + b for a in _region_systems(expr.left) for b in right]
    systems: list[list[Constraint]] = [[]]
    for lf in expr.polys:
        choices = [lf.base.dominance(i) for i, l in enumerate(lf.layers) if l != 1]
        systems = [s + c for s in systems for c in choices]
    return systems


def layered_set(
    polys: Sequence[Union[TropicalPolynomial, LayeredPolynomial]],
) -> LayeredAlgebraicSet:
    """The layered algebraic set of a family: the infimum layering map."""
    return LayeredAlgebraicSet(LayerExpr.family(polys))


def join(x: LayeredAlgebraicSet, y: LayeredAlgebraicSet) -> LayeredAlgebraicSet:
    _match(x, y)
    return LayeredAlgebraicSet(LayerExpr("max", (), x.expr, y.expr))


def meet(x: LayeredAlgebraicSet, y: LayeredAlgebraicSet) -> LayeredAlgebraicSet:
    _match(x, y)
    return LayeredAlgebraicSet(LayerExpr("min", (), x.expr, y.expr))


def _match(x: LayeredAlgebraicSet, y: LayeredAlgebraicSet) -> None:
    if x.arity != y.arity:
        raise ArityError("layered sets of different arity")


def preceq(x: LayeredAlgebraicSet, y: LayeredAlgebraicSet) -> bool:
    """x <= y: x's carrier sits inside y's and layers never exceed y's.

    Both layering maps are constant on each cell of the arrangement of the
    tie lines that occur for the leaves, so one sample per cell decides.
    The 2-cells are sampled only when x's carrier is 2-dimensional: else
    x's map is 1 on every open set.
    """
    _match(x, y)
    leafs = x.expr.leaf_polys() + y.expr.leaf_polys()
    arr = _leaf_arrangement(x.arity, leafs)
    samples = [c.sample() for c in arr.cells]
    if x.complex.dim() == 2:
        samples += arr.side_samples()
    for s in samples:
        lx = x.expr.phi(s)
        if lx > 1 and y.expr.phi(s) < lx:
            return False
    return True


def same_layered_set(x: LayeredAlgebraicSet, y: LayeredAlgebraicSet) -> bool:
    return preceq(x, y) and preceq(y, x)


def layering_constant_on_cells(x: LayeredAlgebraicSet) -> bool:
    """Resample check: the layering map is constant on relative interiors."""
    for cell, layer in x.cells_with_layers():
        if cell.dim == 0:
            continue
        for s in _extra_samples(cell):
            if x.expr.phi(s) != layer:
                return False
    return True


def _extra_samples(cell: Cell):
    if cell.dim != 1:
        yield cell.sample()
        return
    base, d, lo, hi = _as_param(cell)
    ts = []
    if lo is not None and hi is not None:
        ts = [lo + (hi - lo) / 3, lo + (hi - lo) * 2 / 3]
    elif lo is not None:
        ts = [lo + 1, lo + 2]
    elif hi is not None:
        ts = [hi - 1, hi - 2]
    else:
        ts = [Fraction(-1), Fraction(1)]
    for t in ts:
        yield vadd(base, vscale(t, d))


@dataclass(frozen=True)
class NoetherianReport:
    ok: bool
    length: int
    bound: Optional[int]  # None when some layer is infinite
    problems: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "length": self.length,
            "bound": "inf" if self.bound is None else self.bound,
            "problems": list(self.problems),
        }


def descent_budget(x: LayeredAlgebraicSet) -> Optional[int]:
    """Total number of strict lowering steps available below x.

    Every strict descent lowers some cell's layer (or drops the cell), so a
    strictly descending chain from x has at most this many steps.
    """
    total = 0
    for l in x.layers:
        if l is LAYER_INF:
            return None
        total += l - 1
    return total


def verify_noetherian(chain: Sequence[LayeredAlgebraicSet]) -> NoetherianReport:
    """Check a chain is strictly descending and fits the descent budget."""
    problems: list[str] = []
    if not chain:
        return NoetherianReport(False, 0, None, ("empty chain",))
    for i in range(len(chain) - 1):
        lower, upper = chain[i + 1], chain[i]
        if not preceq(lower, upper):
            problems.append(f"step {i}: not descending")
        elif preceq(upper, lower):
            problems.append(f"step {i}: not strict")
    bound = descent_budget(chain[0])
    steps = len(chain) - 1
    if bound is not None and steps > bound:
        problems.append(
            f"chain takes {steps} strict steps but only {bound} are available"
        )
    return NoetherianReport(not problems, steps, bound, tuple(problems))
