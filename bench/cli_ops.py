"""The `cli` workload: one `trop <verb>` subprocess per operation.

Every call is a cold start (interpreter, `import trop.cli`, parse, compute,
print), run one at a time as a closed loop with one client.  It catches a
change that speeds up warm library paths but adds import-time work.
Inputs are the README examples, the stock figures (checked byte for byte
against tests/golden), the documented error inputs, and one small seeded
polynomial per verb in every batch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gen

VERBS = ("eval", "classify", "shell", "locus", "intersect",
         "equal", "admissible", "layered", "dim", "render")
#: the same launcher the `trop` console script runs
LAUNCH = "import sys\nfrom trop.cli import main\nsys.exit(main())"
CHILD = Path(__file__).with_name("cli_child.py")
CALL_TIMEOUT_S = 60
#: README/figure/error cases run per batch, in rotation
FIXED_PER_BATCH = 6

README_CASES = [
    ("eval", ["-f", "x^2+3*x+6", "-a", "3"], {0}, "6v"),
    ("eval", ["--layered", "-f", "x^2+x+0", "-a", "0"], {0}, "0@3"),
    ("classify", ["-f", "x^2+3*x+6"], {0}, None),
    ("shell", ["-f", "2*x1^2+2*x2^2+x1*x2+0"], {0}, None),
    ("locus", ["-f", "x1+x2+0"], {0}, None),
    ("intersect", ["-f", "x1+1*x2+1", "-f", "x1*x2+x1+0"], {0}, None),
    ("equal", ["-X", "plane", "-f", "x1^2+0v*x1*x2+x2^2", "-g", "x1^2+x2^2"], {0}, None),
    ("admissible", ["-X", '{"mode":"corner","polys":["x1+x2+0","x1+x2+1"]}'], {1}, None),
    ("admissible", ["-X", '{"mode":"total","polys":["x^2+2v*x+1"]}', "--witnesses", "@PAIRS"], {1}, None),
    ("layered", ["-f", "x1+x2+0"], {0}, None),
    ("layered", ["-f", "x^2+0", "-f", "x^2+x+0", "-a", "0"], {0}, None),
    ("dim", ["-X", '{"mode":"corner","polys":["x1+x2+0"]}'], {0}, 1),
    ("render", ["-X", '{"mode":"corner","polys":["x1+x2+0"]}', "--svg", "-", "--viewport=-2,2,-2,2"], {0}, None),
    ("locus", ["-f", "x^2+2v*x+1", "--total"], {0}, None),
]
ERROR_CASES = [
    ("eval", ["-f", "not a poly", "-a", "0"], {2}, None),
    ("render", ["--figure", "nope", "--svg", "-"], {2}, None),
    ("equal", ["-X", "{not json", "-f", "x1", "-g", "x1"], {2}, None),
]
FIGURES = ("line-conic", "square", "filled-square", "square-inner-rays",
           "line-conic-union", "three-lines")
#: inputs that crash today (arity-3 witness mode, out-of-range erase index);
#: the README contract asks for exit 0, 1 or 2 and no traceback
KNOWN_CRASHES = [
    ("dim", ["-X", '{"mode":"corner","polys":["x1+x2+x3+0"]}']),
    ("admissible", ["-X", '{"mode":"corner","polys":["x1+x2+x3+0"]}']),
    ("admissible", ["-X", '{"mode":"corner","polys":["x1+x2+0"],"erase":[[5,0,1]]}']),
]


@dataclass
class Op:
    verb: str
    args: list
    exits: set
    expect: object = None  # README value, golden figure name, or known answer


def _eval_oracle(terms, point) -> str:
    """Supertropical evaluation at a tangible point, computed from the terms."""
    vals = [(c + e[0] * point[0] + e[1] * point[1], g) for c, e, g in terms]
    best = max(v for v, _ in vals)
    dom = [g for v, g in vals if v == best]
    ghost = len(dom) > 1 or dom[0]
    body = str(best.numerator) if best.denominator == 1 else f"{best.numerator}/{best.denominator}"
    return body + ("v" if ghost else "")


def child_env(root: Path) -> dict:
    """The environment of a child that imports trop from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


class Cli:
    name = "cli"
    min_batches = 4

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.fixed: list[Op] = []
        self.import_s: list[float] = []

    def setup(self) -> None:
        """Write the witness file, build the fixed argument lists, read the goldens."""
        self.work.mkdir(parents=True, exist_ok=True)
        pairs = self.work / "pairs.json"
        pairs.write_text(json.dumps([["x", "x + -1"]]))
        cases = README_CASES + [("render", ["--figure", n, "--svg", "-"], {0}, n) for n in FIGURES]
        self.fixed = []
        for verb, args, exits, expect in cases + ERROR_CASES:
            args = ["@" + str(pairs.relative_to(self.root)) if a == "@PAIRS" else a for a in args]
            self.fixed.append(Op(verb, [verb] + args, exits, expect))
        self.goldens = {
            n: (self.root / "tests" / "golden" / f"{n}.svg").read_bytes() for n in FIGURES
        }

    def make_batch(self, b: int) -> list[Op]:
        rng = gen.rng_for(self.seed, "cli", b)

        def small(ghost):
            # the CLI infers the arity from the highest variable named, so
            # every polynomial names x2
            while True:
                terms = gen.rand_terms(rng, rng.randint(3, 4), gen.EXPS_DEG2, 6, 2, ghost)
                if any(e[1] for _, e, _ in terms):
                    return terms

        f, g, tangible = small(0.3), small(0.3), small(0.0)
        ft, gt, tt = gen.poly_text(f), gen.poly_text(g), gen.poly_text(tangible)
        point = (gen.rand_q(rng, 6, 2), gen.rand_q(rng, 6, 2))
        corner = json.dumps({"mode": "corner", "polys": [tt], "arity": 2})
        square = gen.poly_text([(c + d, (e[0] + k[0], e[1] + k[1]), gh or gk)
                                for c, e, gh in f for d, k, gk in f])
        frob = gen.poly_text([(2 * c, (2 * e[0], 2 * e[1]), gh) for c, e, gh in f])
        # "-f=text" keeps a leading minus sign from reading as an option
        seeded = [
            Op("eval", ["eval", f"-f={ft}", f"-a={gen.point_text(point)}"], {0},
               _eval_oracle(f, point)),
            Op("classify", ["classify", f"-f={ft}"], {0}),
            Op("shell", ["shell", f"-f={ft}"], {0}),
            Op("locus", ["locus", f"-f={ft}"] + (["--total"] if b % 2 else []), {0}),
            Op("intersect", ["intersect", f"-f={ft}", f"-f={gt}"], {0}),
            Op("equal", ["equal", "-X", "plane", f"-f={square}", f"-g={frob}"], {0}),
            Op("admissible", ["admissible", "-X", corner], {0}, "admissible"),
            Op("layered", ["layered", f"-f={ft}"], {0}),
            Op("dim", ["dim", "-X", corner], {0}, 1),
            Op("render", ["render", "-X", corner, "--svg", "-"], {0}),
        ]
        start = (b * FIXED_PER_BATCH) % len(self.fixed)
        rotation = [self.fixed[(start + i) % len(self.fixed)] for i in range(FIXED_PER_BATCH)]
        return seeded + rotation

    def run(self, op: Op, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-c", LAUNCH] + op.args
        else:
            out = self.work / f"child-{len(self.import_s)}.json"
            out.unlink(missing_ok=True)
            cmd = [sys.executable, str(CHILD), str(out)] + op.args
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              timeout=CALL_TIMEOUT_S)
        if tracer is not None:
            summary = json.loads(out.read_text())
            self.import_s.append(summary.pop("import_s"))
            tracer.merge(summary)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: Op, result):
        code, out, err = result
        canonical = {"argv": op.args, "exit": code, "stdout": out.decode("utf-8", "replace")}
        if b"Traceback" in err:
            return f"traceback from {op.args}: {err.decode()[-200:]}", canonical
        if code not in op.exits:
            return f"exit {code}, expected {sorted(op.exits)} for {op.args}", canonical
        if op.verb == "render" and code == 0:
            if isinstance(op.expect, str) and out != self.goldens[op.expect]:
                return f"figure {op.expect} differs from its golden", canonical
            if not out.startswith(b"<?xml") or b"</svg>" not in out:
                return f"no SVG document from {op.args}", canonical
            return None, canonical
        if code == 2:
            return None, canonical
        try:
            data = json.loads(out)
        except ValueError:
            return f"stdout is not JSON for {op.args}", canonical
        if op.expect is None:
            return None, canonical
        got = {"admissible": "verdict", "dim": "dimension"}.get(op.verb)
        got = data if got is None else data[got]
        if got != op.expect:
            return f"{op.args} gave {got!r}, expected {op.expect!r}", canonical
        return None, canonical

    def known_crashes(self) -> int:
        """How many of the known crash inputs still end in a traceback."""
        crashed = 0
        for verb, args in KNOWN_CRASHES:
            proc = subprocess.run([sys.executable, "-c", LAUNCH, verb] + args, env=self.env,
                                  cwd=self.root, capture_output=True, timeout=CALL_TIMEOUT_S)
            crashed += b"Traceback" in proc.stderr or proc.returncode not in (0, 1, 2)
        return crashed
