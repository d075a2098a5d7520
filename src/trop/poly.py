"""Multivariate tropical polynomials in canonical decomposition.

A polynomial is a finite nonempty map from pure parts (exponent vectors)
to supertropical coefficients.  Building one merges duplicate pure parts
with supertropical addition, so equal magnitudes collide into ghosts and
the decomposition is canonical.

Monomial classification is exact: a term is essential iff its affine
magnitude form strictly dominates all the others somewhere (a linear
feasibility question), quasi-essential iff it at least ties the maximum
somewhere, and inessential otherwise.  Removing a never-strictly-dominant
term can only change values on the tie locus, which has empty interior,
so this matches the function-level definition of essentiality.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ArityError, TropError
from .linear import AffineForm, Constraint, Vec, feasible, form_ge
from .values import (
    LAYER_INF,
    Layer,
    LayeredValue,
    SupertropicalValue,
    lay,
    lay_sum,
    st,
    st_sum,
)

MAX_EXACT_ARITY = 3


class Context(enum.IntEnum):
    """Exponent discipline: ordinary, Laurent, or rational exponents."""

    POL = 0
    LAU = 1
    RATL = 2


class Classification(enum.Enum):
    ESSENTIAL = "essential"
    QUASI_ESSENTIAL = "quasi-essential"
    INESSENTIAL = "inessential"


def _exps(exps: Iterable) -> Vec:
    return tuple(Fraction(e) for e in exps)


def infer_context(exps_list: Iterable[Vec]) -> Context:
    ctx = Context.POL
    for exps in exps_list:
        for e in exps:
            if e.denominator != 1:
                return Context.RATL
            if e < 0:
                ctx = Context.LAU
    return ctx


@dataclass(frozen=True)
class Monomial:
    """A supertropical coefficient times a pure part."""

    exps: Vec
    coeff: SupertropicalValue

    @property
    def arity(self) -> int:
        return len(self.exps)

    def form(self) -> AffineForm:
        """Magnitude of the monomial as an affine function of the point."""
        return AffineForm(self.exps, self.coeff.magnitude)

    def eval(self, point: "Point") -> SupertropicalValue:
        v = self.coeff
        for c, e in zip(point.coords, self.exps):
            if e != 0:
                v = v * (c**e)
        return v

    def __str__(self) -> str:
        from .grammar import format_term

        return format_term(self.exps, self.coeff)


@dataclass(frozen=True)
class Point:
    """A point of the n-fold product of the supertropical semifield."""

    coords: tuple[SupertropicalValue, ...]

    @staticmethod
    def of(*coords) -> "Point":
        return Point(tuple(_coerce_value(c) for c in coords))

    @property
    def arity(self) -> int:
        return len(self.coords)

    def lift(self) -> "Point":
        return Point(tuple(c.lift() for c in self.coords))

    @property
    def magnitudes(self) -> Vec:
        return tuple(c.magnitude for c in self.coords)

    @property
    def tangible(self) -> bool:
        return all(c.tangible for c in self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def _coerce_value(c) -> SupertropicalValue:
    if isinstance(c, SupertropicalValue):
        return c
    return st(Fraction(c))


class TropicalPolynomial:
    """Canonical decomposition of a tropical polynomial function."""

    __slots__ = ("arity", "context", "terms")

    def __init__(
        self,
        arity: int,
        terms: Iterable[tuple[Iterable, SupertropicalValue]],
        context: Optional[Context] = None,
    ):
        merged: dict[Vec, SupertropicalValue] = {}
        for raw_exps, coeff in terms:
            exps = _exps(raw_exps)
            if len(exps) != arity:
                raise ArityError(
                    f"term of arity {len(exps)} in a polynomial of arity {arity}"
                )
            if exps in merged:
                merged[exps] = merged[exps] + coeff
            else:
                merged[exps] = coeff
        if not merged:
            raise TropError("a polynomial needs at least one term")
        inferred = infer_context(merged.keys())
        if context is None:
            context = inferred
        elif context < inferred:
            raise TropError(
                f"exponents require context {inferred.name}, got {context.name}"
            )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "context", Context(context))
        object.__setattr__(
            self,
            "terms",
            tuple(
                Monomial(exps, coeff)
                for exps, coeff in sorted(merged.items(), key=lambda kv: kv[0], reverse=True)
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("TropicalPolynomial is immutable")

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropicalPolynomial):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.context, self.terms))

    def forms(self) -> list[AffineForm]:
        return [m.form() for m in self.terms]

    def dominance(self, i: int, strict: bool = False) -> list[Constraint]:
        """Constraints on the point: term i attains the maximum magnitude."""
        forms = self.forms()
        return [form_ge(forms[i], g, strict) for j, g in enumerate(forms) if j != i]

    def monomial(self, i: int) -> "TropicalPolynomial":
        m = self.terms[i]
        return TropicalPolynomial(self.arity, [(m.exps, m.coeff)], self.context)

    def without_term(self, *drop: int) -> "TropicalPolynomial":
        kept = [
            (m.exps, m.coeff) for i, m in enumerate(self.terms) if i not in set(drop)
        ]
        if not kept:
            raise TropError("cannot drop every term")
        return TropicalPolynomial(self.arity, kept, self.context)

    # -- evaluation --------------------------------------------------------

    def eval(self, point: Union[Point, Sequence]) -> SupertropicalValue:
        point = as_point(point, self.arity)
        if point.arity != self.arity:
            raise ArityError(f"point of arity {point.arity} for arity {self.arity}")
        return st_sum(m.eval(point) for m in self.terms)

    def eval_mag(self, mags: Sequence[Fraction]) -> tuple[Fraction, list[int]]:
        """Maximum magnitude over terms and the ids attaining it.

        This is evaluation of the tangible lift at the tangible lift of the
        point: only magnitudes matter.
        """
        best: Optional[Fraction] = None
        dominants: list[int] = []
        for i, m in enumerate(self.terms):
            v = m.form()(mags)
            if best is None or v > best:
                best, dominants = v, [i]
            elif v == best:
                dominants.append(i)
        assert best is not None
        return best, dominants

    def corner_ghost_at(self, mags: Sequence[Fraction]) -> bool:
        """Whether the tangible lift evaluates ghost at a tangible point."""
        return len(self.eval_mag(mags)[1]) >= 2

    def total_ghost_at(self, mags: Sequence[Fraction]) -> bool:
        """Whether the polynomial itself evaluates ghost at a tangible point."""
        _, dom = self.eval_mag(mags)
        return len(dom) >= 2 or any(self.terms[i].coeff.ghost for i in dom)

    # -- classification, shell, tangibility --------------------------------

    def classify_term(self, i: int) -> Classification:
        if self.arity > MAX_EXACT_ARITY:
            raise ArityError(
                f"exact classification supports arity <= {MAX_EXACT_ARITY}"
            )
        if feasible(self.dominance(i, strict=True), self.arity):
            return Classification.ESSENTIAL
        if feasible(self.dominance(i), self.arity):
            return Classification.QUASI_ESSENTIAL
        return Classification.INESSENTIAL

    def classify(self) -> list[Classification]:
        return [self.classify_term(i) for i in range(len(self.terms))]

    def essential_ids(self) -> list[int]:
        return [
            i
            for i, c in enumerate(self.classify())
            if c is Classification.ESSENTIAL
        ]

    def shell(self) -> "TropicalPolynomial":
        ids = self.essential_ids()
        return TropicalPolynomial(
            self.arity,
            [(self.terms[i].exps, self.terms[i].coeff) for i in ids],
            self.context,
        )

    def is_tangible(self) -> bool:
        """All essential coefficients tangible (tangibility as a function)."""
        return all(self.terms[i].coeff.tangible for i in self.essential_ids())

    # -- coefficient maps ----------------------------------------------------

    def tangible_lift(self) -> "TropicalPolynomial":
        return TropicalPolynomial(
            self.arity,
            [(m.exps, m.coeff.lift()) for m in self.terms],
            self.context,
        )

    def nu(self) -> "TropicalPolynomial":
        return TropicalPolynomial(
            self.arity,
            [(m.exps, m.coeff.nu()) for m in self.terms],
            self.context,
        )

    # -- semiring operations -------------------------------------------------

    def __add__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        self._match(other)
        return TropicalPolynomial(
            self.arity,
            [(m.exps, m.coeff) for m in self.terms]
            + [(m.exps, m.coeff) for m in other.terms],
            max(self.context, other.context),
        )

    def __mul__(self, other: "TropicalPolynomial") -> "TropicalPolynomial":
        self._match(other)
        prods = [
            (tuple(e1 + e2 for e1, e2 in zip(m1.exps, m2.exps)), m1.coeff * m2.coeff)
            for m1 in self.terms
            for m2 in other.terms
        ]
        return TropicalPolynomial(self.arity, prods, max(self.context, other.context))

    def __pow__(self, k: int) -> "TropicalPolynomial":
        if k < 0:
            raise TropError("negative polynomial powers are not defined")
        result = TropicalPolynomial(self.arity, [((0,) * self.arity, st(0))])
        base = self
        for _ in range(k):
            result = result * base
        return result

    def scale(self, c: SupertropicalValue) -> "TropicalPolynomial":
        return TropicalPolynomial(
            self.arity, [(m.exps, c * m.coeff) for m in self.terms], self.context
        )

    def substitute(
        self, var: int, coeff_mag: Fraction, exps: Sequence[Fraction]
    ) -> "TropicalPolynomial":
        """Replace variable `var` by the tangible monomial coeff_mag * x^exps.

        The substituted monomial must not itself involve `var`.
        """
        w = _exps(exps)
        if len(w) != self.arity:
            raise ArityError("substitution exponent vector has wrong arity")
        if w[var] != 0:
            raise TropError("substitution reintroduces the eliminated variable")
        out = []
        for m in self.terms:
            e_k = m.exps[var]
            new_exps = tuple(
                (m.exps[i] + e_k * w[i]) if i != var else Fraction(0)
                for i in range(self.arity)
            )
            new_coeff = m.coeff * st(coeff_mag * e_k)
            out.append((new_exps, new_coeff))
        return TropicalPolynomial(self.arity, out, Context.RATL)

    def _match(self, other: "TropicalPolynomial") -> None:
        if self.arity != other.arity:
            raise ArityError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )

    def __str__(self) -> str:
        from .grammar import format_poly

        return format_poly(self)

    def __repr__(self) -> str:
        return f"poly({str(self)!r})"


def as_point(p: Union[Point, Sequence], arity: int) -> Point:
    if isinstance(p, Point):
        return p
    coords = tuple(_coerce_value(c) for c in p)
    return Point(coords)


def poly(
    arity: int,
    terms: Iterable[tuple[Iterable, SupertropicalValue]],
    context: Optional[Context] = None,
) -> TropicalPolynomial:
    return TropicalPolynomial(arity, terms, context)


def segment_point(a: Point, b: Point, t: Fraction) -> Point:
    """The point a^t b^(1-t): coordinates interpolate multiplicatively."""
    t = Fraction(t)
    one = Fraction(1)
    return Point(
        tuple((ca**t) * (cb ** (one - t)) for ca, cb in zip(a.coords, b.coords))
    )


def eval_on_segment(
    h: Monomial, a: Point, b: Point, t: Fraction
) -> SupertropicalValue:
    """h(a^t b^(1-t)); equals h(a)^t h(b)^(1-t) since monomials are
    multiplicative along lines."""
    t = Fraction(t)
    if t < 0 or t > 1:
        warnings.warn(f"segment parameter {t} outside [0,1]: extrapolating")
    return h.eval(segment_point(a, b, t))


# -- layered polynomials ----------------------------------------------------


@dataclass(frozen=True)
class LayeredPolynomial:
    """A tropical polynomial whose coefficients carry explicit layers.

    Wraps the supertropical canonical form; `layers[i]` is the layer of
    `base.terms[i]`.  Unannotated coefficients sit at layer 1 (tangible) or
    infinity (ghost).
    """

    base: TropicalPolynomial
    layers: tuple[Layer, ...]

    @staticmethod
    def of(base: TropicalPolynomial, layers: Optional[dict[Vec, Layer]] = None):
        lys = []
        for m in base.terms:
            if layers and m.exps in layers:
                lys.append(layers[m.exps])
            else:
                lys.append(LAYER_INF if m.coeff.ghost else 1)
        return LayeredPolynomial(base, tuple(lys))

    @property
    def arity(self) -> int:
        return self.base.arity

    def coefficient(self, i: int) -> LayeredValue:
        return lay(self.base.terms[i].coeff.magnitude, self.layers[i])

    def eval(self, point: Sequence[LayeredValue]) -> LayeredValue:
        point = [c if isinstance(c, LayeredValue) else lay(Fraction(c)) for c in point]
        if len(point) != self.arity:
            raise ArityError("point arity mismatch")
        vals = []
        for i, m in enumerate(self.base.terms):
            v = self.coefficient(i)
            for c, e in zip(point, m.exps):
                if e != 0:
                    v = v * (c**e)
            vals.append(v)
        return lay_sum(vals)

    def __str__(self) -> str:
        from .grammar import format_layered_poly

        return format_layered_poly(self)


def layered(f: Union[TropicalPolynomial, LayeredPolynomial]) -> LayeredPolynomial:
    if isinstance(f, LayeredPolynomial):
        return f
    return LayeredPolynomial.of(f)
