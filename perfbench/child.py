"""One measurement in a fresh interpreter, started by run.py.

    python3 child.py SPEC_JSON

``SPEC_JSON`` is an object with ``mode``:

* ``"setup"``: time ``import hqmap.cli`` followed by loading and validating
  the corpus, the way ``hqmap.cli.main`` does before any command
  (``corpus`` is a path, or null for the built-in corpus).
* ``"invoke"``: run ``hqmap.cli.main(argv)`` once, with its standard output
  and error sent to files, and time the call.  With ``spans`` set, the
  tracer is installed first and its spans are written there on exit.

The result is one JSON line on standard output.  A fresh process per
invocation matches a user's ``hqmap`` process: the ring-image cache, the
series parts' derivative coefficients and numpy's state all start cold.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _check_source(root: Path) -> None:
    import hqmap

    src = (root / "src" / "hqmap").resolve()
    if Path(hqmap.__file__).resolve().parent != src:
        raise SystemExit(f"hqmap imported from {hqmap.__file__}, not from {src}")


def setup(spec) -> dict:
    t0 = time.perf_counter()
    import hqmap.cli  # noqa: F401  (the import is what is timed)
    from hqmap import corpus

    maps = corpus.load_corpus(spec["corpus"]) if spec["corpus"] else corpus.default_corpus()
    corpus.validate_corpus(maps)
    elapsed = time.perf_counter() - t0
    _check_source(Path(spec["root"]))
    return {"setup_s": elapsed}


def invoke(spec) -> dict:
    import hqmap
    import hqmap.cli

    _check_source(Path(spec["root"]))
    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(hqmap)
    error = None
    with open(spec["stdout"], "w", newline="\n") as out, open(spec["stderr"], "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = hqmap.cli.main(spec["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the failure is recorded and counted by run.py
            rc = None
            error = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.dump(spec["spans"], spec["pass_id"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": rc, "error": error, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    result = {"setup": setup, "invoke": invoke}[spec["mode"]](spec)
    sys.stdout.write(json.dumps(result) + "\n")
