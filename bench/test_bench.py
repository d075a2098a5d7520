"""Tests of the benchmark itself: seeded inputs, tracing, digests, contract.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_ops  # noqa: E402
import loci_ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verdict_ops  # noqa: E402

MODS = spans.trop_modules()


def _inputs(ops):
    return [(op.kind, op.text, op.points) if hasattr(op, "text") else
            (op.kind, op.variant, op.texts, op.extra, op.points) for op in ops]


def _cheap(ops):
    """The loci batch's smallest builds and every verdicts slot but the searches."""
    return [op for op in ops if len(getattr(op, "points", ())) and op.kind != "admissible"][:3]


def test_same_seed_gives_same_inputs():
    for cls in (loci_ops.Loci, verdict_ops.Verdicts):
        a, b, c = cls(5, MODS), cls(5, MODS), cls(6, MODS)
        for k in (0, 1):
            assert _inputs(a.make_batch(k)) == _inputs(b.make_batch(k))
            assert _inputs(a.make_batch(k)) != _inputs(c.make_batch(k))
    work = ROOT / ".bench_build" / "test"
    a, b = cli_ops.Cli(5, ROOT, work), cli_ops.Cli(5, ROOT, work)
    a.setup(), b.setup()
    for k in (0, 1):
        assert [op.args for op in a.make_batch(k)] == [op.args for op in b.make_batch(k)]


def test_traced_counts_and_digest_repeat():
    for cls in (loci_ops.Loci, verdict_ops.Verdicts):
        wl = cls(3, MODS)
        ops = _cheap(wl.make_batch(0))
        plain = run.Batch(wl, ops)
        summaries = []
        for _ in range(2):
            tracer = spans.Tracer()
            tracer.install(MODS)
            traced = run.Batch(wl, ops, tracer)
            assert traced.digest() == plain.digest()
            assert not traced.problems and not plain.problems
            summary = tracer.summary()
            summaries.append((summary["calls"], summary["counts"]))
        assert summaries[0] == summaries[1]
        assert sum(summaries[0][0].values()) > 0


def test_tracer_rebinds_every_import_and_restores():
    loci, geom = MODS["loci"], MODS["geom"]
    original = geom.intersect_cells
    assert loci.intersect_cells is original
    tracer = spans.Tracer()
    tracer.install(MODS)
    assert loci.intersect_cells is geom.intersect_cells is not original
    tracer.uninstall()
    assert loci.intersect_cells is geom.intersect_cells is original


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    calls, self_s = tracer.table()
    assert calls == {"outer": 1, "inner": 3}
    total = tracer.end[0] - tracer.start[0]
    children = sum(tracer.end[i] - tracer.start[i] for i in range(1, 4))
    assert abs(self_s["outer"] - (total - children)) < 1e-12
    assert list(tracer.parent) == [-1, 0, 0, 0]


def test_batch_zero_digests_match_the_record():
    recorded = json.loads((BENCH / "digests.json").read_text())
    for name, cls in (("loci", loci_ops.Loci), ("verdicts", verdict_ops.Verdicts)):
        for seed, digest in recorded[name].items():
            wl = cls(int(seed), MODS)
            assert run.Batch(wl, wl.make_batch(0)).digest() == digest, (name, seed)
    for seed, digest in recorded["cli"].items():
        wl = cli_ops.Cli(int(seed), ROOT, ROOT / ".bench_build" / "test")
        wl.setup()
        assert run.Batch(wl, wl.make_batch(0)).digest() == digest, ("cli", seed)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["loci", "verdicts", "cli"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_build" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loci", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == b""
