"""Exact rational linear algebra: affine forms and linear feasibility.

Everything here works over tuples of Fractions.  Feasibility of systems of
(strict or weak) linear inequalities is decided by Fourier-Motzkin
elimination, which is exact and, at the handful-of-variables scale this
package works at, entirely adequate.  The solver also reconstructs a
rational witness point by back-substitution.

Cells do not go through this solver: `geom` decides intersections in closed
form.  Fourier-Motzkin serves the arity-3 term classification, the direct
open-set checks of equality and dimension, the interior sample of a
region, and the tests, which use it as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]


def vec(*xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def _pos_scale(a: Vec) -> Fraction:
    """Positive rational s such that s*a is a coprime integer vector."""
    denoms = lcm(*(x.denominator for x in a))
    ints = [int(x * denoms) for x in a]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return Fraction(denoms, g)


def primitive(a: Vec) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    if is_zero(a):
        raise ValueError("zero vector has no primitive form")
    s = _pos_scale(a)
    ints = [int(x * s) for x in a]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


@dataclass(frozen=True)
class AffineForm:
    """coeffs . x + const, an affine function of n rational variables."""

    coeffs: Vec
    const: Fraction

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        return dot(self.coeffs, tuple(point)) + self.const

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(vsub(self.coeffs, other.coeffs), self.const - other.const)

    @property
    def arity(self) -> int:
        return len(self.coeffs)


def affine(coeffs: Iterable, const) -> AffineForm:
    return AffineForm(tuple(Fraction(c) for c in coeffs), Fraction(const))


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (>= | >)  rhs"""

    coeffs: Vec
    rhs: Fraction
    strict: bool = False

    def holds(self, point: Sequence[Fraction]) -> bool:
        lhs = dot(self.coeffs, tuple(point))
        return lhs > self.rhs if self.strict else lhs >= self.rhs


def ge(coeffs: Iterable, rhs, strict: bool = False) -> Constraint:
    return Constraint(tuple(Fraction(c) for c in coeffs), Fraction(rhs), strict)


def form_ge(lhs: AffineForm, rhs: AffineForm, strict: bool = False) -> Constraint:
    """The constraint lhs >= rhs (or lhs > rhs) on the variables."""
    d = lhs - rhs
    return Constraint(d.coeffs, -d.const, strict)


def form_eq(lhs: AffineForm, rhs: AffineForm) -> list[Constraint]:
    return [form_ge(lhs, rhs), form_ge(rhs, lhs)]


def _eliminate(constraints: list[Constraint], k: int) -> list[Constraint]:
    """Project away variable k (Fourier-Motzkin)."""
    lowers = []  # coefficient on x_k positive: a lower bound on x_k
    uppers = []
    rest = []
    for c in constraints:
        a = c.coeffs[k]
        if a == 0:
            rest.append(c)
        elif a > 0:
            lowers.append(c)
        else:
            uppers.append(c)
    out = list(rest)
    for lo in lowers:
        a = lo.coeffs[k]
        for up in uppers:
            ap = -up.coeffs[k]
            coeffs = tuple(
                Fraction(0) if i == k else ap * lo.coeffs[i] + a * up.coeffs[i]
                for i in range(len(lo.coeffs))
            )
            out.append(
                Constraint(coeffs, ap * lo.rhs + a * up.rhs, lo.strict or up.strict)
            )
    return _dedup(out)


def _dedup(constraints: list[Constraint]) -> list[Constraint]:
    seen = set()
    out = []
    for c in constraints:
        if is_zero(c.coeffs):
            key = (None, c.rhs, c.strict)
        else:
            s = _pos_scale(c.coeffs)
            key = (tuple(x * s for x in c.coeffs), c.rhs * s, c.strict)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def feasible_point(constraints: Sequence[Constraint], arity: int) -> Optional[Vec]:
    """A rational point satisfying every constraint, or None if infeasible.

    Variables are eliminated from the last index down, so levels[j] is free
    in variables 0..arity-1-j only.
    """
    levels: list[list[Constraint]] = [list(constraints)]
    for k in range(arity - 1, -1, -1):
        levels.append(_eliminate(levels[-1], k))
    for c in levels[arity]:
        if c.strict:
            if not Fraction(0) > c.rhs:
                return None
        else:
            if not Fraction(0) >= c.rhs:
                return None
    point: list[Fraction] = [Fraction(0)] * arity
    for k in range(arity):
        # levels[arity-1-k] is free exactly in variables 0..k
        lowers: list[tuple[Fraction, bool]] = []
        uppers: list[tuple[Fraction, bool]] = []
        for c in levels[arity - 1 - k]:
            a = c.coeffs[k]
            if a == 0:
                continue
            rest = sum((c.coeffs[i] * point[i] for i in range(k)), Fraction(0))
            bound = (c.rhs - rest) / a
            if a > 0:
                lowers.append((bound, c.strict))
            else:
                uppers.append((bound, c.strict))
        point[k] = _pick_between(lowers, uppers)
    return tuple(point)


def _pick_between(
    lowers: list[tuple[Fraction, bool]], uppers: list[tuple[Fraction, bool]]
) -> Fraction:
    lo = max(lowers, default=None, key=lambda t: (t[0], t[1]))
    up = min(uppers, default=None, key=lambda t: (t[0], not t[1]))
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return up[0] - 1 if up[1] else up[0]
    if up is None:
        return lo[0] + 1 if lo[1] else lo[0]
    if lo[0] == up[0]:
        # elimination already certified compatibility, so both are weak here
        return lo[0]
    return (lo[0] + up[0]) / 2


def feasible(constraints: Sequence[Constraint], arity: int) -> bool:
    return feasible_point(constraints, arity) is not None
