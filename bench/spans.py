"""Span tracing of trop's public functions, installed from outside the package.

A module-level function is wrapped by rebinding its name in every trop module
that holds it, because `from .geom import intersect_cells` copies the binding
into the importing module.  A method (or a class, through `__init__`) is
wrapped on its class.  Each call records a span (name, parent, start, end) in
flat in-memory arrays; self time is computed at the end as inclusive time
minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: (module, attribute, span name).  "Class.method" wraps a method on its
#: class; "Class.__init__" records construction under the class name.  The
#: vector helpers of `linear` and the value arithmetic of `values` are left
#: out: they are too fine-grained to wrap, so their cost is charged to the
#: caller's self time.
TARGETS = [
    ("grammar", "parse_poly", "grammar.parse_poly"),
    ("grammar", "parse_layered_poly", "grammar.parse_layered_poly"),
    ("grammar", "parse_point", "grammar.parse_point"),
    ("poly", "TropicalPolynomial.eval", "poly.eval"),
    ("poly", "TropicalPolynomial.eval_mag", "poly.eval_mag"),
    ("poly", "TropicalPolynomial.classify_term", "poly.classify_term"),
    ("linear", "feasible", "linear.feasible"),
    ("linear", "feasible_point", "linear.feasible_point"),
    ("geom", "polyhedron", "geom.polyhedron"),
    ("geom", "intersect_cells", "geom.intersect_cells"),
    ("geom", "cell_contains_cell", "geom.cell_contains_cell"),
    ("complexes", "tie_lines", "complexes.tie_lines"),
    ("complexes", "Arrangement.__init__", "complexes.Arrangement"),
    ("complexes", "CellComplex.__init__", "complexes.CellComplex"),
    ("complexes", "CellComplex.contains", "complexes.CellComplex.contains"),
    ("complexes", "CellComplex.covers", "complexes.CellComplex.covers"),
    ("complexes", "CellComplex.to_json", "complexes.CellComplex.to_json"),
    ("loci", "AlgebraicSet.__init__", "loci.AlgebraicSet"),
    ("loci", "AlgebraicSet.facets", "loci.facets"),
    ("loci", "AlgebraicSet.contains_mags", "loci.contains_mags"),
    ("equivalence", "disagreements_on", "equivalence.disagreements_on"),
    ("equivalence", "equal_on", "equivalence.equal_on"),
    ("equivalence", "essentially_agree", "equivalence.essentially_agree"),
    ("equivalence", "default_witnesses", "equivalence.default_witnesses"),
    ("equivalence", "check_admissible", "equivalence.check_admissible"),
    ("layered", "LayeredAlgebraicSet.__init__", "layered.LayeredAlgebraicSet"),
    ("layered", "LayeredAlgebraicSet.layer_at", "layered.layer_at"),
    ("layered", "join", "layered.join"),
    ("layered", "meet", "layered.meet"),
    ("layered", "preceq", "layered.preceq"),
    ("dimension", "build_chain", "dimension.build_chain"),
    ("dimension", "verify_chain", "dimension.verify_chain"),
    ("render", "render_svg", "render.render_svg"),
    ("cli", "parse_set_spec", "cli.parse_set_spec"),
    ("cli", "main", "cli.main"),
]

MODULES = sorted({mod for mod, _, _ in TARGETS})


def trop_modules() -> dict:
    """The trop modules named in TARGETS, imported."""
    return {m: importlib.import_module(f"trop.{m}") for m in MODULES}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple] = []
        #: aggregates merged in from traced child processes
        self.merged_calls: Counter = Counter()
        self.merged_self: defaultdict = defaultdict(float)

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def on_stack(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(self.name_of[i] == nid for i in self._stack[1:])

    def wrap(self, fn, name: str, after=None):
        nid = self.span_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, modules: dict) -> None:
        trop_mods = [m for k, m in sys.modules.items() if k == "trop" or k.startswith("trop.")]
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            after = _AFTER.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(orig, name, after))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name, after)
            for m in trop_mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results -----------------------------------------------------------------

    def table(self) -> tuple[Counter, dict]:
        """Calls and self seconds per span name, merged children included."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter(self.merged_calls)
        self_s = defaultdict(float, self.merged_self)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, dict(self_s)

    def summary(self) -> dict:
        calls, self_s = self.table()
        return {"calls": dict(calls), "self_s": self_s, "counts": dict(self.counts)}

    def merge(self, summary: dict) -> None:
        self.merged_calls.update(summary["calls"])
        for name, s in summary["self_s"].items():
            self.merged_self[name] += s
        self.counts.update(summary["counts"])

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.name_of),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


# -- counters recorded at span boundaries -----------------------------------------


def _arrangement(tr, args, result):
    self = args[0]
    tr.counts["complexes.arrangement_lines"] += len(self.lines)
    tr.counts["complexes.arrangement_cells"] += len(self.cells)


def _kept(tr, args, result):
    cx = args[0].complex
    if cx is not None:
        tr.counts["loci.cells_kept"] += len(cx.cells)


def _constraints(tr, args, result):
    tr.counts["linear.constraints"] += len(args[0])


def _witness(tr, args, result):
    if tr.on_stack("equivalence.check_admissible"):
        tr.counts["equivalence.witness_pairs_tried"] += 1


def _verdict(tr, args, result):
    if result.verdict == "unknown":
        tr.counts["equivalence.verdicts_unknown"] += 1


def _chain(tr, args, result):
    tr.counts["dimension.chain_steps"] += len(result.steps)


_AFTER = {
    "complexes.Arrangement": _arrangement,
    "loci.AlgebraicSet": _kept,
    "layered.LayeredAlgebraicSet": _kept,
    "linear.feasible_point": _constraints,
    "equivalence.essentially_agree": _witness,
    "equivalence.check_admissible": _verdict,
    "dimension.build_chain": _chain,
}
