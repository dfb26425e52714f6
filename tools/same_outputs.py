"""Check that two checkouts write the same bytes on the byte-identity runs.

    python tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout holding ``src/hqmap`` and ``perfbench/corpus_gen.py``.
For each root, in a fresh temporary directory, every step below runs in a
fresh interpreter with that root's ``src`` (and, for the corpora, its
``perfbench``) on ``PYTHONPATH``:

- the seed-1 corpora of the ``report-series-l0`` and ``checks-series-l3``
  benchmark workloads, written by ``corpus_gen.corpus_text``;
- ``report`` on the built-in maps at ``--grid-level`` 0 and 1;
- ``report`` on the ``report-series-l0`` corpus at level 0, ``--seed 1``;
- each of the four ``check`` suites on the ``checks-series-l3`` corpus at
  level 3, ``--seed 1``, with ``--out``;
- ``poisson koebe`` at level 1 and ``john shear-k3`` on the built-ins, with
  ``--out``.  In ``report`` only the first map meets the process's cold
  sample caches (``geometry.circle_nodes``, criterion (iii)'s level
  boxes), so these single-map runs check the cold path for other maps.

Each run's exit code, standard output and standard error are kept beside
its output files, and compared byte for byte like them; a run that
succeeds writes nothing to standard error.  The corpora and every run are
given by relative paths, so the two trees hold the same names.  The script
prints each file that differs or exists on one side only, and exits 0 when
the trees are equal and 1 otherwise.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name -> corpus_text arguments (seed, n_analytic, n_harmonic, degree)
CORPORA = {
    "report-series-l0.json": (1, 2, 2, 12),
    "checks-series-l3.json": (1, 12, 12, 16),
}
SUITES = ("analytic-classical", "geometry", "radial-growth", "harmonic-advisory")

# run name -> CLI arguments; each run writes into out/<run name>
RUNS = {
    "report-builtin-l0": ["--grid-level", "0", "report"],
    "report-builtin-l1": ["--grid-level", "1", "report"],
    "report-series-l0": ["--corpus", "report-series-l0.json", "--grid-level", "0",
                         "--seed", "1", "report"],
    **{f"check-{suite}-l3": ["--corpus", "checks-series-l3.json", "--grid-level", "3",
                             "--seed", "1", "check", suite] for suite in SUITES},
    "poisson-koebe-l1": ["--grid-level", "1", "poisson", "koebe"],
    "john-shear-k3": ["john", "shear-k3"],
}

_WRITE_CORPUS = ("import sys, pathlib, corpus_gen\n"
                 "text = corpus_gen.corpus_text(*map(int, sys.argv[2:]))\n"
                 "pathlib.Path(sys.argv[1]).write_text(text, newline='\\n')\n")


def _python(root: Path, work: Path, args: list, *extra_paths: str):
    paths = [str(root / "src"), *(str(root / p) for p in extra_paths)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True)


def run_root(root: Path, work: Path) -> None:
    """Write the corpora and every run's outputs of ``root`` under ``work``."""
    for name, spec in CORPORA.items():
        proc = _python(root, work, ["-c", _WRITE_CORPUS, name, *map(str, spec)], "perfbench")
        if proc.returncode != 0:
            raise SystemExit(f"{root}: writing {name} failed:\n{proc.stderr.decode()}")
    for name, argv in RUNS.items():
        out = Path("out") / name
        (work / out).mkdir(parents=True)
        proc = _python(root, work, ["-m", "hqmap.cli", "--out", str(out), *argv])
        (work / out / "exit_code").write_text(f"{proc.returncode}\n")
        (work / out / "stdout").write_bytes(proc.stdout)
        (work / out / "stderr").write_bytes(proc.stderr)


def differences(left: Path, right: Path, rel: Path = Path(".")) -> list:
    """Relative paths of the files that differ or exist on one side only."""
    cmp = filecmp.dircmp(left, right)
    out = [rel / name for name in cmp.left_only + cmp.right_only + cmp.common_funny]
    _, mismatch, errors = filecmp.cmpfiles(left, right, cmp.common_files, shallow=False)
    out += [rel / name for name in mismatch + errors]
    for sub in cmp.common_dirs:
        out += differences(left / sub, right / sub, rel / sub)
    return sorted(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("parent", "change")]
        for root, work in zip(roots, works):
            work.mkdir()
            run_root(root, work)
        diff = differences(*works)
        for path in diff:
            print(f"differs: {path}")
        codes = sorted({(work / "out" / name / "exit_code").read_text().strip()
                        for work in works for name in RUNS})
    print(f"{len(RUNS)} runs, {len(diff)} differing files, exit codes {', '.join(codes)}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
