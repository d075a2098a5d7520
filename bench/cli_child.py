"""Run one trop CLI call with span tracing.

Usage: python3 bench/cli_child.py OUT.json VERB [ARGS...]

Times `import trop.cli`, installs the tracer, runs the verb exactly as the
`trop` console script would, and writes the span summary (calls, self time,
counts, import time) to OUT.json and the raw spans next to it.
"""

import json
import sys
import time

out_path, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
import trop.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install(spans.trop_modules())
code = 1
try:
    code = trop.cli.main(argv)
except SystemExit as exc:
    code = exc.code
finally:
    tracer.uninstall()
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.dump(out_path + ".spans")
sys.exit(code)
