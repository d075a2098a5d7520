from fractions import Fraction

from trop.complexes import CellComplex
from trop.grammar import parse_layered_poly, parse_poly
from trop.layered import (
    descent_budget,
    join,
    layered_set,
    layering_constant_on_cells,
    layering_of,
    meet,
    preceq,
    same_layered_set,
    verify_noetherian,
)
from trop.values import lay
from conftest import random_fraction


def p1(s):
    return parse_poly(s, 1)


def p2(s):
    return parse_poly(s, 2)


LINE = "x1 + x2 + 0"


def cells_by_layer(L):
    out = {}
    for c, l in L.cells_with_layers():
        out.setdefault(l, []).append(str(c))
    return out


def test_layering_values():
    assert layering_of(p1("x^2 + 0"), [0]) == 2
    assert layering_of(p1("x^2 + x + 0"), [0]) == 3
    assert layering_of(p1("x^2 + 0"), [5]) == 1


def test_layering_with_layered_input():
    f = parse_layered_poly("1@2*x + 0")
    assert layering_of(f, [0]) == 2  # the layer-2 term dominates alone
    assert layering_of(f, [-1]) == 3  # tie: layers 2 and 1 add
    assert layering_of(f, [5]) == 2
    assert layering_of(f, [lay(0, 2)]) == 4  # coefficient layer 2 times point layer 2


def test_line_layers():
    L = layered_set([p2(LINE)])
    by = cells_by_layer(L)
    assert len(by[2]) == 3  # the three rays
    assert by[3] == ["point(Fraction(0, 1), Fraction(0, 1))"]


def test_crosswise_layers_on_segment():
    # mirror-consistent line a*x1 + x2 + a against the conic x1*x2 + x2 + 0
    a = 1
    fa = p2(f"{a}*x1 + x2 + {a}")
    g = p2("x1*x2 + x2 + 0")
    assert layering_of(fa, [0, 0]) == 2 == layering_of(g, [0, a])
    assert layering_of(fa, [0, a]) == 3 == layering_of(g, [0, 0])
    X = meet(layered_set([fa]), layered_set([g]))
    cells = [str(c) for c, _ in X.cells_with_layers()]
    assert "seg(Fraction(0, 1), Fraction(0, 1))->(Fraction(0, 1), Fraction(1, 1))" in cells
    assert all(l == 2 for _, l in X.cells_with_layers())


def test_meet_of_line_and_curve_is_two_rays():
    L1 = layered_set([p2(LINE)])
    X2 = layered_set([p2("x1^2 + x2 + 0")])
    M = meet(L1, X2)
    rays = sorted(
        c.dir for c, _ in M.cells_with_layers() if c.dim == 1
    )
    assert rays == [(-1, 0), (0, -1)]
    # under the pointwise-minimum rule, both maps reach 3 at the origin
    assert M.layer_at((0, 0)) == 3


def test_binomial_hyperplane_meet_has_layer_two_at_origin():
    H = meet(layered_set([p2("x1 + x2")]), layered_set([p2("x1 + 0")]))
    assert [str(c) for c, _ in H.cells_with_layers()] == [
        "point(Fraction(0, 1), Fraction(0, 1))"
    ]
    assert H.layer_at((0, 0)) == 2
    assert H.layer_at((0, 0)) != 3


def test_lattice_idempotence():
    X = layered_set([p2(LINE)])
    assert same_layered_set(meet(X, X), X)
    assert same_layered_set(join(X, X), X)


def test_lattice_laws(rng):
    A = layered_set([p2("x1 + x2 + 1")])
    B = layered_set([p2("x1*x2 + 0")])
    C = layered_set([p2("x1^2 + x2 + 0")])
    assert same_layered_set(join(A, B), join(B, A))
    assert same_layered_set(meet(A, B), meet(B, A))
    assert same_layered_set(join(A, join(B, C)), join(join(A, B), C))
    assert same_layered_set(meet(A, meet(B, C)), meet(meet(A, B), C))
    # absorption
    assert same_layered_set(meet(A, join(A, B)), A)
    assert same_layered_set(join(A, meet(A, B)), A)


def test_preceq_partial_order():
    X = layered_set([p2(LINE)])
    Y = layered_set([p2("x1^2 + x2 + 0")])
    assert preceq(X, X)
    assert preceq(meet(X, Y), X) and preceq(meet(X, Y), Y)
    assert preceq(X, join(X, Y)) and preceq(Y, join(X, Y))
    assert not preceq(X, Y)


def test_greatest_lower_bound():
    X = layered_set([p2(LINE)])
    Y = layered_set([p2("x1*x2 + x2 + 0")])
    M = meet(X, Y)
    # any common lower bound is below the meet
    Z = meet(M, layered_set([p2("x1 + x2")]))
    assert preceq(Z, M)


def test_underline_projections(rng):
    # projections: carrier of join is the union, carrier of meet the intersection
    for _ in range(25):
        f = random_conic(rng)
        g = random_conic(rng)
        X, Y = layered_set([f]), layered_set([g])
        J, M = join(X, Y), meet(X, Y)
        union = CellComplex(
            2, list(X.complex.cells) + list(Y.complex.cells), []
        )
        assert J.complex.same_set(union)
        for c, _ in M.cells_with_layers():
            s = c.sample()
            assert X.complex.contains(s) and Y.complex.contains(s)
        for c, _ in X.cells_with_layers():
            s = c.sample()
            if Y.complex.contains(s):
                assert M.complex.contains(s)


def random_conic(rng):
    from trop.poly import TropicalPolynomial
    from trop.values import st

    terms = {}
    choices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for _ in range(rng.randint(3, 4)):
        e = rng.choice(choices)
        terms[(Fraction(e[0]), Fraction(e[1]))] = st(random_fraction(rng, 3))
    while len(terms) < 2:
        terms[(Fraction(2), Fraction(2))] = st(random_fraction(rng, 3))
    return TropicalPolynomial(2, list(terms.items()))


def test_layering_constant_on_cells(rng):
    for _ in range(10):
        X = layered_set([random_conic(rng)])
        assert layering_constant_on_cells(X)


def test_layered_set_of_constant_is_empty():
    assert layered_set([p2("3")]).is_empty()


def test_high_layer_coefficient_regions():
    f = parse_layered_poly("x1^2*x2^2 + x1^2 + x2^2 + 0 + 1@2*x1*x2")
    X = layered_set([f])
    assert X.layer_at((0, 0)) == 2  # the layer-2 coefficient dominates inside
    regions = [c for c, _ in X.cells_with_layers() if c.dim == 2]
    assert len(regions) == 1


def test_join_carrier_with_ghost_coefficients():
    # a max needs a ghost region on one side only: the carrier of the join
    # is exactly where the joined layering map exceeds 1
    f = p2("-1/2*x1^2 + -3/2v*x2^2 + 3v*x2 + 2v")
    g = p2("-4v*x1^2 + -4*x1 + -2*x2")
    J = join(layered_set([f]), layered_set([g]))
    grid = [Fraction(i, 2) for i in range(-7, 7)]
    wrong = [
        (x, y)
        for x in grid
        for y in grid
        if J.complex.contains((x, y)) != (J.layer_at((x, y)) > 1)
    ]
    assert len(grid) ** 2 == 196 and wrong == []


def test_family_carrier_with_a_layer_one_member():
    # g's map is 1 off its locus, so the family has no 2-dimensional piece
    f = parse_layered_poly("0@2*x1^2*x2^2 + 0v*x1^2 + 0v*x1*x2 + 0@2*x2^2 + 0", 2)
    g = p2("x1^2 + -1*x1*x2 + x2^2 + 0")
    F = layered_set([f, g])
    assert F.complex.dim() == 1
    grid = [Fraction(i, 2) for i in range(-8, 9)]
    assert all(
        F.complex.contains((x, y)) == (F.layer_at((x, y)) > 1)
        for x in grid
        for y in grid
    )


def test_preceq_samples_two_cells():
    # on the quadrant x1 > 0, x2 < 0 x has layer 2 and y has layer 1; the
    # quadrant is a whole 2-cell of the arrangement of the ties that occur
    X = layered_set([parse_layered_poly("0@2*x1^2 + 0v*x2 + 0@2", 2)])
    Y = layered_set([parse_layered_poly("0v*x1*x2 + x1 + 0v*x2 + 0v", 2)])
    p = (Fraction(1, 4), Fraction(-4))
    assert X.layer_at(p) == 2 and Y.layer_at(p) == 1
    assert not preceq(X, Y)


def test_supertropical_collapse_compatibility(rng):
    # layer > 1 exactly where the supertropical evaluation is ghost
    for _ in range(10):
        f = random_conic(rng)
        for _ in range(20):
            p = (random_fraction(rng), random_fraction(rng))
            ghost = f.eval(p).ghost
            assert (layering_of(f, p) > 1) == ghost


def test_descent_budget_of_line():
    X = layered_set([p2(LINE)])
    # three rays at layer 2 and the origin at 3: five lowering steps in all,
    # so at most four strictly smaller nonempty sets before emptiness
    assert descent_budget(X) == 5


def test_noetherian_verification():
    X = layered_set([p2(LINE)])
    Y = meet(X, layered_set([p2("x1 + x2")]))  # the diagonal ray, layer 2
    Z = meet(Y, layered_set([p2("x1 + 0")]))  # just the origin
    rep = verify_noetherian([X, Y, Z])
    assert rep.ok and rep.length == 2 and rep.bound == 5
    # a constant chain is rejected as non-strict
    rep = verify_noetherian([X, X])
    assert not rep.ok and "not strict" in rep.problems[0]
    # a non-descending chain is rejected
    rep = verify_noetherian([Y, X])
    assert not rep.ok


def test_random_strict_chains_respect_budget(rng):
    for _ in range(10):
        f = random_conic(rng)
        X = layered_set([f])
        if X.is_empty():
            continue
        budget = descent_budget(X)
        chain = [X]
        current = X
        # strictly descend by meeting with binomial hyperplanes
        for m in list(current.expr.leaf_polys()[0].base.terms)[:2]:
            from trop.poly import TropicalPolynomial

            g = TropicalPolynomial(
                2, [(m.exps, m.coeff.lift()), ((Fraction(0), Fraction(0)), m.coeff.lift())]
            )
            nxt = meet(current, layered_set([g]))
            if preceq(current, nxt):
                continue  # not strict
            chain.append(nxt)
            current = nxt
        rep = verify_noetherian(chain)
        assert rep.ok
        assert budget is None or rep.length <= budget


def test_json_layers():
    X = layered_set([p2(LINE)])
    data = X.to_json()
    assert data["layers"]["v0"] == 3
    assert sorted(data["layers"].values()) == [2, 2, 2, 3]


def test_nested_segments_are_comparable_under_the_minimum_rule():
    # With layers given by pointwise minima, the segment for a = 1 sits below
    # the segment for a = 2: every cell carries layer 2 on both sides.  The
    # generating layering maps themselves are NOT monotone: the smaller
    # line's vertex value 3 exceeds the larger line's value 2 there.
    g = p2("x1*x2 + x2 + 0")
    f1 = p2("1*x1 + x2 + 1")
    f2 = p2("2*x1 + x2 + 2")
    X1 = meet(layered_set([f1]), layered_set([g]))
    X2 = meet(layered_set([f2]), layered_set([g]))
    assert preceq(X1, X2) and not preceq(X2, X1)
    assert layering_of(f1, [0, 1]) == 3 > 2 == layering_of(f2, [0, 1])


def test_collapse_commutes_with_evaluation(rng):
    from trop.poly import layered
    from trop.values import supertropical_of_layered

    for _ in range(10):
        f = random_conic(rng)
        lf = layered(f)
        for _ in range(20):
            p = (random_fraction(rng), random_fraction(rng))
            via_layers = supertropical_of_layered(lf.eval([lay(p[0]), lay(p[1])]))
            assert via_layers == f.eval(p)
