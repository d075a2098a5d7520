"""The `loci` workload: build one locus of a distinct random 2D polynomial,
then answer a batch of membership queries through the read API.

Cost grows as T^4 in the term count T and goes to the arrangement, vertex
pruning and `eval_mag`.  Every input is distinct, so memoizing across calls
gains nothing; reads sit beside builds, so a faster build that makes
`contains` slower also shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import gen
import spans

#: one batch: term counts chosen so that the median and the 75th percentile
#: of the pooled op latencies fall inside a term-count group, not between two
BATCH_TERMS = (6, 8, 8, 10, 12)
KINDS = ("corner", "total", "layered")
TOTAL_GHOST_SHARE = 0.3
QUERIES = dict(n_box=16, n_line=32, n_cross=16)


@dataclass
class Op:
    kind: str
    text: str
    f: object  # parsed polynomial
    points: list


class Loci:
    name = "loci"
    min_batches = 8

    def __init__(self, seed: int, mods: dict = None):
        self.seed = seed
        self.mods = mods

    def setup(self) -> None:
        self.mods = spans.trop_modules()

    def make_batch(self, b: int) -> list[Op]:
        parse = self.mods["grammar"].parse_poly
        ops = []
        for k, n_terms in enumerate(BATCH_TERMS):
            rng = gen.rng_for(self.seed, "loci", b, k)
            kind = KINDS[(b + k) % len(KINDS)]
            ghost = TOTAL_GHOST_SHARE if kind == "total" else 0.0
            terms = gen.rand_terms(
                rng, n_terms, gen.EXPS_DEG4, 12, 4, ghost, min_ghost=int(kind == "total")
            )
            text = gen.poly_text(terms)
            points = gen.oracle_points(rng, terms, **QUERIES)
            ops.append(Op(kind, text, parse(text, 2), points))
        return ops

    def run(self, op: Op, tracer=None):
        if op.kind == "layered":
            L = self.mods["layered"].layered_set([op.f])
            return L, [(L.complex.contains(p), L.layer_at(p)) for p in op.points]
        loci = self.mods["loci"]
        X = loci.corner_locus(op.f) if op.kind == "corner" else loci.total_locus(op.f)
        return X, [X.complex.contains(p) for p in op.points]

    def check(self, op: Op, result):
        """Membership read from the complex must match the direct test."""
        X, answers = result
        if op.kind == "layered":
            got = [inside for inside, _ in answers]
            want = [layer > 1 for _, layer in answers]
            answers = [[inside, str(layer)] for inside, layer in answers]
        else:
            got = answers
            want = [X.contains_mags(p) for p in op.points]
        bad = sum(g != w for g, w in zip(got, want))
        problem = f"{bad} membership mismatches for {op.kind} {op.text}" if bad else None
        canonical = {"kind": op.kind, "poly": op.text, "set": X.to_json(), "answers": answers}
        return problem, canonical
