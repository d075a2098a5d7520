"""Loci built from the tie lines that occur, checked against two oracles.

The first oracle rebuilds every set from all pairwise ties (`tie_lines` in
place of `occurring_tie_lines`); outputs must be byte-identical and `preceq`
must give the same booleans.  The second checks membership in each complex
against the defining conditions, evaluated directly, at random points and
at points of the tie lines and their crossings; at the same points, no
`preceq` that holds may meet a counterexample.
"""

import json
from fractions import Fraction

import trop.layered
import trop.loci
from trop.complexes import (
    Arrangement,
    _point_on,
    cross_tie_lines,
    occurring_tie_lines,
    tie_lines,
)
from trop.geom import line_intersection
from trop.grammar import parse_poly
from trop.layered import join, layered_set, meet, preceq
from trop.linear import vadd, vscale
from trop.loci import corner_locus, corner_locus_family, corner_locus_pair, total_locus
from trop.poly import LayeredPolynomial, TropicalPolynomial
from trop.values import LAYER_INF, st
from conftest import random_fraction

CASES = 10
MAX_TERMS = 5
CROSSINGS = 24

# Fixed inputs, each paired with the next one of its arity.
FIXED = {
    1: [
        "x^2 + 1*x + 2",  # x is quasi-essential: it dominates at x = 1 only
        "x^2 + 0 + -1*x",  # x is inessential
        "x^3 + x^2 + x + 0",  # six pairs share one tie point
    ],
    2: [
        "x1*x2 + x1 + x2 + 0",  # the locus is two full lines
        "x1^3 + 1*x1^2 + -1*x1 + 0",  # collinear exponents: parallel ties
        "x1^2 + x1 + 0 + x2",  # three pairs share the line x1 = 0
        "x1^2*x2^2 + x1^2 + x2^2 + 0 + 0*x1*x2",  # x1*x2 dominates at 0 only
        "x1^2 + x2^2 + 0 + -1*x1*x2",  # x1*x2 is inessential
        "x1^2 + x2 + 0",
    ],
}


def random_poly(rng, arity: int, ghosts: bool = False) -> TropicalPolynomial:
    """Up to MAX_TERMS terms; in two variables a quarter of the draws put
    every exponent on one line through the origin."""
    if arity == 1:
        grid = [(Fraction(e),) for e in range(6)]
    elif rng.random() < 0.25:
        step = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)])
        grid = [(Fraction(k * step[0]), Fraction(k * step[1])) for k in range(-2, 4)]
    else:
        grid = [(Fraction(a), Fraction(b)) for a in range(4) for b in range(4)]
    exps = rng.sample(grid, rng.randint(2, min(MAX_TERMS, len(grid))))
    return TropicalPolynomial(
        arity,
        [(e, st(random_fraction(rng, 6, 2), ghosts and rng.random() < 0.4)) for e in exps],
    )


def random_layers(rng, f: TropicalPolynomial) -> LayeredPolynomial:
    return LayeredPolynomial.of(
        f, {m.exps: rng.choice([1, 1, 2, 3, LAYER_INF]) for m in f.terms}
    )


def cases(rng):
    """Pairs (f, g) of one arity: the fixed inputs, then random ones."""
    out = []
    for arity, texts in FIXED.items():
        polys = [parse_poly(t, arity) for t in texts]
        out += list(zip(polys, polys[1:] + polys[:1]))
    for k in range(CASES):
        arity = 1 + k % 2
        out.append((random_poly(rng, arity, ghosts=True), random_poly(rng, arity)))
    return out


def algebraic_sets(f, g):
    return [
        corner_locus(f),
        total_locus(f),
        corner_locus_pair(f, g),
        corner_locus_family([f, g]),
    ]


def layered_sets(lf, lg):
    X, Y = layered_set([lf]), layered_set([lg])
    return [X, Y, layered_set([lf, lg]), join(X, Y), meet(X, Y)]


def preceq_pairs(lsets):
    X, Y, F, J, M = lsets
    return [(X, Y), (M, X), (X, J), (F, M)]


def outputs(f, g, lf, lg) -> list:
    sets = algebraic_sets(f, g)
    lsets = layered_sets(lf, lg)
    out = [json.dumps(s.to_json(), sort_keys=True) for s in sets + lsets]
    return out + [preceq(a, b) for a, b in preceq_pairs(lsets)]


def test_occurring_lines_match_all_ties(rng, monkeypatch):
    for f, g in cases(rng):
        assert occurring_tie_lines(f) <= tie_lines(f)
        assert occurring_tie_lines(g) <= tie_lines(g)
        lf, lg = random_layers(rng, f), random_layers(rng, g)
        got = outputs(f, g, lf, lg)
        with monkeypatch.context() as m:
            m.setattr(trop.loci, "occurring_tie_lines", tie_lines)
            m.setattr(trop.layered, "occurring_tie_lines", tie_lines)
            want = outputs(f, g, lf, lg)
        assert got == want, (str(f), str(g))


def probe_points(rng, f, g) -> list:
    """Random points, points of every pairwise tie, and tie crossings."""
    arity = f.arity
    lines = sorted(
        tie_lines(f) | tie_lines(g) | cross_tie_lines(f, g), key=lambda l: (l.a, l.c)
    )
    pts = [tuple(random_fraction(rng) for _ in range(arity)) for _ in range(12)]
    if arity == 1:
        return pts + [_point_on(l) for l in lines]
    pts += [vadd(_point_on(l), vscale(random_fraction(rng), l.direction())) for l in lines]
    crossings = {
        line_intersection(a.a, a.c, b.a, b.c)
        for i, a in enumerate(lines)
        for b in lines[i + 1 :]
    } - {None}
    return pts + rng.sample(sorted(crossings), min(CROSSINGS, len(crossings)))


def test_membership_oracle(rng):
    for f, g in cases(rng):
        lf, lg = random_layers(rng, f), random_layers(rng, g)
        sets = algebraic_sets(f, g)
        lsets = layered_sets(lf, lg)
        pts = probe_points(rng, f, g)
        for p in pts:
            for X in sets:
                assert X.complex.contains(p) == X.contains_mags(p), (X.describe(), p)
            for L in lsets:
                assert L.complex.contains(p) == (L.layer_at(p) > 1), (str(L), p)
        for a, b in preceq_pairs(lsets):
            if preceq(a, b):
                for p in pts:
                    assert a.layer_at(p) == 1 or b.layer_at(p) >= a.layer_at(p), p


def test_side_samples_meet_every_two_cell(rng):
    # Euler's formula with one vertex at infinity: F = E - V + 1
    assert len(Arrangement(2, []).side_samples()) == 1
    for f, g in cases(rng):
        if f.arity != 2:
            continue
        arr = Arrangement(2, tie_lines(f) | tie_lines(g))
        samples = arr.side_samples()
        assert all(l.form_value(p) != 0 for p in samples for l in arr.lines)
        signs = {tuple(l.form_value(p) > 0 for l in arr.lines) for p in samples}
        edges = sum(1 for c in arr.cells if c.dim == 1)
        vertices = sum(1 for c in arr.cells if c.dim == 0)
        assert len(signs) == edges - vertices + 1
