"""Benchmark for trop: seeded workloads through the public entry points.

Usage (from the repository root):

    python3 bench/run.py --workload loci|verdicts|cli --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json):
  loci      build one corner/total/layered locus per operation (T = 6..12
            terms, degree <= 4), then membership queries on it
  verdicts  one decision per operation on a small set: admissibility,
            equality, a dimension chain, or join/meet/preceq
  cli       one `trop <verb>` subprocess per operation

Operations run in batches of fixed composition; every batch draws fresh
inputs from the seed.  Batches run until --seconds of measured time have
passed and at least the workload's minimum number of batches is done.  All
load comes from this one process and thread (cli: one child at a time).
Every result is checked by an oracle that does not use the code being
timed; a failed check or an unexpected exception counts as a failed
operation.

Before every batch the set-up is sampled: a cold `import trop.cli` in a
fresh interpreter (timed inside it) plus making and parsing the batch's
inputs.  setup_s is the median sample.

Times are reported in seconds at a nominal machine speed: each batch and
set-up sample is scaled by the speed factor that a fixed reference
computation, which does not use trop, measures just before and after it:
exact arithmetic in-process, or a cold interpreter for the cli workload
(see speed_scale).  The raw batch times are printed on the summary lines.

--trace 0 prints the end-to-end metrics.  --trace 1 replays batch 0
untraced, traced and untraced again, and prints the per-layer metrics:
calls and self time of trop's public functions (wrapped from outside the
package, see spans.py), work counts, each module's share of the traced
time, and the tracing overhead, all in raw (unscaled) seconds.  The raw
spans go to .bench_build/bench/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines above it are a readable summary and the sha256 digest
of batch 0's canonical results (trop's JSON for each operation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import cli_ops
import loci_ops
import spans
import verdict_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "bench"
#: durations of the reference computations at the nominal machine speed;
#: times are reported in seconds at that speed (see speed_scale)
REFERENCE_NOMINAL_S = 0.05
REFERENCE_CHILD_NOMINAL_S = 0.08
#: a cold interpreter importing the stdlib modules trop uses, but not trop
REFERENCE_CHILD = "import argparse, dataclasses, enum, fractions, json, re, typing"
#: fixed per workload: at the minimum run length every workload has at
#: least 40 operations, so at least 10 lie beyond the 75th percentile
TAIL_PERCENTILE = 75

END_TO_END = [
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

LAYER_MODULES = ["grammar", "poly", "linear", "geom", "complexes", "loci",
                 "equivalence", "layered", "dimension", "render", "cli"]
#: spans reported with their calls and self time
SPANS = [
    "complexes.Arrangement", "complexes.CellComplex", "complexes.CellComplex.contains",
    "loci.AlgebraicSet", "layered.LayeredAlgebraicSet", "poly.eval_mag", "poly.eval",
    "geom.intersect_cells", "geom.polyhedron", "linear.feasible", "linear.feasible_point",
    "equivalence.check_admissible", "equivalence.essentially_agree",
    "equivalence.disagreements_on", "loci.facets", "layered.preceq",
    "dimension.build_chain", "dimension.verify_chain", "grammar.parse_poly", "render.render_svg",
]
COUNTS = [
    "complexes.arrangement_lines", "complexes.arrangement_cells", "loci.cells_kept",
    "equivalence.witness_pairs_tried", "equivalence.verdicts_unknown", "dimension.chain_steps",
]

PER_LAYER = (
    [(f"{n}.calls", "count") for n in SPANS]
    + [(f"{n}.self_s", "s") for n in SPANS]
    + [(n, "count") for n in COUNTS]
    + [("loci.kept_ratio", "ratio"), ("linear.constraints_per_call", "count")]
    + [(f"{m}.self_share", "ratio") for m in LAYER_MODULES + ["other"]]
    + [("cli.import_s", "s"), ("cli.import_share", "ratio"), ("cli.known_crashes", "count")]
    + [(f"cli.{v}.p50_ms", "ms") for v in cli_ops.VERBS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def _reference_work() -> int:
    """Exact rational arithmetic with object churn, like trop's, without trop."""
    acc = []
    x = Fraction(1, 3)
    for i in range(1, 4000):
        y = Fraction(i % 97 - 48, i % 13 + 1)
        x = (x * y + Fraction(1, i)) / (abs(y) + 1)
        acc.append((x, y, {"k": i}))
    return len(acc)


def _reference_child() -> None:
    subprocess.run([sys.executable, "-c", REFERENCE_CHILD], env=cli_ops.child_env(ROOT),
                   cwd=ROOT, capture_output=True, timeout=60, check=True)


def speed_scale(child: bool) -> float:
    """Nominal over measured duration of a reference computation.

    The machines this runs on are shared: the same computation takes from
    0.8x to 1.6x its usual time depending on the minute.  A reference that
    does the same kind of work slows in step: trop's in-process work against
    exact arithmetic (ratio varies by about 4% where raw times vary by 20%),
    and a trop subprocess against a cold interpreter importing the stdlib
    (about 6% against 14%).  Raw times multiplied by this factor are seconds
    at the nominal speed, which compare across runs and commits.
    """
    work, nominal = (_reference_child, REFERENCE_CHILD_NOMINAL_S) if child else (
        _reference_work, REFERENCE_NOMINAL_S)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return nominal / statistics.median(times)


class Batch:
    """Run one batch of operations and check every result."""

    def __init__(self, workload, ops, tracer=None):
        self.latencies: list[float] = []
        self.problems: list[str] = []
        self.canonical: list[bytes] = []
        results = []
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                results.append(workload.run(op, tracer))
            except Exception as exc:  # an unexpected exception fails the operation
                results.append(exc)
            self.latencies.append(time.perf_counter() - t0)
        self.wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()  # oracles run untraced
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                problem, canon = f"{type(result).__name__}: {result}", {"raised": repr(result)}
            else:
                problem, canon = workload.check(op, result)
            if problem:
                self.problems.append(problem)
            self.canonical.append(json.dumps(canon, sort_keys=True, separators=(",", ":"),
                                             default=str).encode())

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.canonical:
            h.update(c + b"\n")
        return h.hexdigest()


def make_workload(name: str, seed: int):
    if name == "cli":
        return cli_ops.Cli(seed, ROOT, WORK)
    return {"loci": loci_ops.Loci, "verdicts": verdict_ops.Verdicts}[name](seed)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


IMPORT_PROBE = "import time\nt0 = time.perf_counter()\nimport trop.cli\nprint(time.perf_counter() - t0)"


def import_seconds() -> float:
    """A cold `import trop.cli` in a fresh interpreter, timed inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=cli_ops.child_env(ROOT),
                          cwd=ROOT, capture_output=True, timeout=60, check=True)
    return float(proc.stdout)


def timed_run(wl, seconds):
    """Set-up sample, batch, set-up sample, batch, ... until `seconds` of
    measured time.

    A set-up sample (a cold import of trop, then making and parsing the
    batch's inputs) precedes every batch, so set-up time is sampled across
    the run like everything else.  Each set-up and batch is scaled by the
    mean of the speed factors measured just before and just after it.
    """
    batches, latencies, setups, raw_walls, problems = [], [], [], [], []
    b, measured = 0, 0.0
    wl.setup()
    child = wl.name == "cli"
    scale_before = speed_scale(child)
    while True:
        setup_raw = import_seconds()
        t0 = time.perf_counter()
        ops = wl.make_batch(b)
        setup_raw += time.perf_counter() - t0
        batch = Batch(wl, ops)
        scale_after = speed_scale(child)
        scale = (scale_before + scale_after) / 2
        scale_before = scale_after
        setups.append(setup_raw * scale)
        batches.append(batch.wall * scale)
        raw_walls.append(batch.wall)
        latencies += [x * scale for x in batch.latencies]
        problems += batch.problems
        measured += batch.wall * scale
        if b == 0:
            digest = batch.digest()
        b += 1
        if b >= wl.min_batches and sum(raw_walls) >= seconds:
            break
    tail = percentile(latencies, TAIL_PERCENTILE)
    metrics = {
        "wall_s": statistics.median(batches),
        "ops_per_s": len(latencies) / measured,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    notes = [
        f"{len(batches)} batches, {len(latencies)} operations, {sum(raw_walls):.2f} s measured",
        "times are seconds at the reference speed; raw batch walls (s): "
        + " ".join(f"{x:.2f}" for x in raw_walls),
        f"raw median batch wall {statistics.median(raw_walls):.4f} s, "
        f"median speed factor {statistics.median(b / r for b, r in zip(batches, raw_walls)):.4f}",
        f"wall_s is the median batch wall; op_p50_ms is over {len(latencies)} operations",
        f"op_tail_ms is p{TAIL_PERCENTILE} over {len(latencies)} operations "
        f"({sum(x > tail for x in latencies)} beyond it)",
    ]
    return metrics, len(latencies), problems, digest, notes


def layer_metrics(wl, ops, tracer, traced: Batch, plain: tuple) -> dict:
    calls, self_s = tracer.table()
    counts = tracer.counts
    total = sum(traced.latencies)
    out = {f"{n}.calls": calls.get(n, 0) for n in SPANS}
    out.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SPANS})
    out.update({n: counts.get(n, 0) for n in COUNTS})
    cells = counts.get("complexes.arrangement_cells", 0)
    out["loci.kept_ratio"] = counts.get("loci.cells_kept", 0) / cells if cells else 0.0
    fp = calls.get("linear.feasible_point", 0)
    out["linear.constraints_per_call"] = counts.get("linear.constraints", 0) / fp if fp else 0.0
    spanned = 0.0
    for m in LAYER_MODULES:
        s = sum(v for k, v in self_s.items() if k.startswith(m + "."))
        spanned += s
        out[f"{m}.self_share"] = s / total
    out["other.self_share"] = 1 - spanned / total
    out.update({"cli.import_s": 0.0, "cli.import_share": 0.0, "cli.known_crashes": 0})
    out.update({f"cli.{v}.p50_ms": 0.0 for v in cli_ops.VERBS})
    if wl.name == "cli":
        out["cli.import_s"] = statistics.median(wl.import_s)
        latencies = plain[0].latencies + plain[1].latencies
        out["cli.import_share"] = out["cli.import_s"] / statistics.median(latencies)
        out["cli.known_crashes"] = wl.known_crashes()
        by_verb: dict = {}
        for op, lat in zip(ops + ops, latencies):
            by_verb.setdefault(op.verb, []).append(lat)
        for v, lats in by_verb.items():
            out[f"cli.{v}.p50_ms"] = statistics.median(lats) * 1000
    out["trace.wall_s"] = traced.wall
    out["trace.overhead_s"] = traced.wall - (plain[0].wall + plain[1].wall) / 2
    out["trace.spans"] = len(tracer.name_of) + sum(tracer.merged_calls.values())
    return out


def trace_run(wl, batch0):
    """Untraced, traced, untraced again: the two untraced passes bracket the
    traced one, so warm-up and drift do not read as tracing overhead."""
    before = Batch(wl, batch0)
    tracer = spans.Tracer()
    if wl.name != "cli":  # each cli child installs its own tracer
        tracer.install(wl.mods)
    traced = Batch(wl, batch0, tracer)
    after = Batch(wl, batch0)
    problems = before.problems + traced.problems + after.problems
    if not before.digest() == traced.digest() == after.digest():
        problems.append("traced and untraced runs give different digests")
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"spans-{wl.name}-{wl.seed}.bin")
    metrics = layer_metrics(wl, batch0, tracer, traced, (before, after))
    notes = [f"traced batch 0: {len(batch0)} operations, {metrics['trace.spans']} spans, "
             f"overhead {metrics['trace.overhead_s']:.3f} s"]
    return metrics, 3 * len(batch0), problems, before.digest(), notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["loci", "verdicts", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trop" / "__init__.py").is_file():
        print(f"bench: no trop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = make_workload(args.workload, args.seed)
    if args.trace:
        wl.setup()
        metrics, attempted, problems, digest, notes = trace_run(wl, wl.make_batch(0))
        units = dict(PER_LAYER)
    else:
        metrics, attempted, problems, digest, notes = timed_run(wl, args.seconds)
        units = dict(END_TO_END)

    recorded = json.loads((BENCH / "digests.json").read_text()).get(args.workload, {})
    match = recorded.get(str(args.seed))
    state = "not recorded" if match is None else ("matches record" if match == digest else "DIFFERS from record")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    # failed_ratio is printed, not put in the JSON: a bounded metric there
    # must never be 0, and failures are reported as `failed` of `attempted`
    print(f"  {'failed_ratio':40s} {len(problems) / attempted:>16.6g} ratio"
          f" ({len(problems)} of {attempted})")
    print(f"digest {args.workload} {args.seed} {digest} ({state})")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
