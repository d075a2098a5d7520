"""Seeded inputs for the trop benchmark, produced as polynomial text.

trop only ever sees the text made here.  The oracle points are computed
from the terms of the polynomials (pairwise tie lines and their crossings),
never from an arrangement or a complex built by trop.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: exponent vectors of 2D monomials of degree <= 4 and <= 2
EXPS_DEG4 = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
EXPS_DEG2 = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]


def rng_for(seed: int, *stream) -> random.Random:
    """An independent generator per (seed, stream) so batches do not share draws."""
    return random.Random(repr((seed,) + stream))


def rand_q(rng: random.Random, span: int, den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def term_text(coeff: Fraction, exps, ghost: bool) -> str:
    parts = [f"{coeff}{'v' if ghost else ''}"]
    for k, e in enumerate(exps):
        if e:
            parts.append(f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}")
    return "*".join(parts)


def poly_text(terms) -> str:
    """terms: (coeff, exps, ghost) triples; repeated exponents are allowed."""
    return " + ".join(term_text(c, e, g) for c, e, g in terms)


def rand_terms(rng, n_terms, exps_pool, span, den, ghost_share=0.0, min_ghost=0):
    """Distinct exponents, random rational coefficients, a share of ghosts."""
    exps = rng.sample(exps_pool, n_terms)
    ghosts = [rng.random() < ghost_share for _ in exps]
    for k in rng.sample(range(n_terms), min_ghost):
        ghosts[k] = True
    return [(rand_q(rng, span, den), e, g) for e, g in zip(exps, ghosts)]


# -- oracle points ---------------------------------------------------------------


def oracle_points_1d(rng, terms, n_box, span=10):
    """Random points and the tie points of every pair of terms, in one variable."""
    pts = {(rand_q(rng, 4 * span, 4),) for _ in range(n_box)}
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            (ci, (ei,), _), (cj, (ej,), _) = terms[i], terms[j]
            if ei != ej:
                pts.add((Fraction(cj - ci) / (ei - ej),))
    return sorted(pts)


def tie_lines(terms):
    """(a, r) with a . x = r where two terms' magnitude forms are equal."""
    out = set()
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            (ci, ei, _), (cj, ej, _) = terms[i], terms[j]
            a = (ei[0] - ej[0], ei[1] - ej[1])
            if a != (0, 0):
                out.add((a, cj - ci))
    return sorted(out)


def point_on(line, t: Fraction):
    (a1, a2), r = line
    if a2 != 0:
        return (t, (r - a1 * t) / a2)
    return (Fraction(r, a1), t)


def crossing(l1, l2):
    (a1, a2), r1 = l1
    (b1, b2), r2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return (Fraction(r1 * b2 - a2 * r2, det), Fraction(a1 * r2 - r1 * b1, det))


def oracle_points(rng, terms, n_box, n_line, n_cross, span=10):
    """Box points, points on pairwise tie lines, and tie-line crossings."""
    pts = [
        (rand_q(rng, 4 * span, 4), rand_q(rng, 4 * span, 4)) for _ in range(n_box)
    ]
    lines = tie_lines(terms)
    if lines:
        for _ in range(n_line):
            pts.append(point_on(rng.choice(lines), rand_q(rng, 4 * span, 4)))
        crossings = [
            p
            for i in range(len(lines))
            for j in range(i + 1, len(lines))
            if (p := crossing(lines[i], lines[j])) is not None
        ]
        if crossings:
            pts.extend(rng.choice(crossings) for _ in range(n_cross))
    return [tuple(Fraction(x) for x in p) for p in pts]


def point_text(p) -> str:
    return ",".join(str(x) for x in p)
