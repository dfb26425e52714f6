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
- ``check harmonic-advisory`` on the same corpus with ``--eps 1e-3
  --alpha 4 --bigk 2 --seed 1``: the runs above take the default alpha, K
  and eps, so only this one meets ``boundary_dist_lower``'s
  ``|z| <= 1 - 2 eps`` filter (641 of the 737 grid points) and a ``--bigk``
  above a map's grid K;
- ``check geometry`` on the built-ins at ``--seed 7``, with ``--out``:
  the runs above draw the geometry suite's sampled lines at seeds 0 and 1
  only;
- ``poisson koebe`` at level 1 and ``john shear-k3`` on the built-ins, with
  ``--out``.  In ``report`` only the first map meets the process's cold
  sample caches (``geometry.circle_nodes``, criterion (iii)'s level
  boxes), so these single-map runs check the cold path for other maps;
- ``radial koebe`` at theta = 0.3 on the radii 0.2, 0.5, 0.9 and 0.99,
  with ``--out``: ``report`` writes radial profiles at theta = 0 only.

Each run's exit code, standard output and standard error are kept beside
its output files, and compared byte for byte like them; a run that
succeeds writes nothing to standard error.  The corpora and every run are
given by relative paths, so the two trees hold the same names.  The script
prints each file that differs or exists on one side only, and exits 0 when
the trees are equal and 1 otherwise.  Under each differing check-line file
(a suite's ``.jsonl`` or a ``check`` run's ``stdout``) it also prints every
field that differs, as ``predicate key: parent -> change``; the n-th line
of a predicate that has several is named ``predicate#n``.  Under each
differing Poisson file (a ``poisson_*.csv`` or ``poisson_*.json``, or a
``poisson`` run's ``stdout``) it prints the largest relative change of any
number both sides hold at the same place, and where it is, as
``largest relative change R at WHERE: parent -> change``: a CSV number is
named ``row r column``, a JSON number by its path, such as ``trace[2]``.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
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
    "check-harmonic-advisory-eps": ["--corpus", "checks-series-l3.json", "--eps", "1e-3",
                                    "--alpha", "4", "--bigk", "2", "--seed", "1",
                                    "check", "harmonic-advisory"],
    "check-geometry-seed7": ["--seed", "7", "check", "geometry"],
    "poisson-koebe-l1": ["--grid-level", "1", "poisson", "koebe"],
    "john-shear-k3": ["john", "shear-k3"],
    "radial-koebe": ["radial", "koebe", "0.3", "0.2,0.5,0.9,0.99"],
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


def _lines_by_predicate(path: Path) -> dict:
    """The check lines of a JSON-lines file, keyed ``predicate`` or, for a
    predicate's n-th line of several, ``predicate#n``."""
    groups = {}
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        groups.setdefault(doc["predicate"], []).append(doc)
    return {name if len(docs) == 1 else f"{name}#{n}": doc
            for name, docs in groups.items() for n, doc in enumerate(docs, 1)}


def field_differences(left: Path, right: Path) -> list:
    """``predicate key: left -> right`` for every field of two check-line
    files that differs, a line on one side only included."""
    old, new = _lines_by_predicate(left), _lines_by_predicate(right)
    out = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, {}), new.get(name, {})
        for key in sorted(a.keys() | b.keys()):
            if key != "predicate" and a.get(key) != b.get(key):
                out.append(f"{name} {key}: {json.dumps(a.get(key))} -> "
                           f"{json.dumps(b.get(key))}")
    return out


def _holds_check_lines(path: Path) -> bool:
    return path.suffix == ".jsonl" or (path.name == "stdout"
                                       and path.parent.name.startswith("check-"))


def _holds_poisson_numbers(path: Path) -> bool:
    if path.name == "stdout":
        return path.parent.name.startswith("poisson")
    return path.name.startswith("poisson_") and path.suffix in (".csv", ".json")


def _numbers(path: Path) -> dict:
    """The numbers of a Poisson CSV or JSON document, keyed by where they
    are; a field that is not a number, or a document that does not parse,
    gives none."""
    text = path.read_text()
    out = {}
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        for r, row in enumerate(rows[1:], 1):
            for name, cell in zip(rows[0], row):
                try:
                    out[f"row {r} {name}"] = float(cell)
                except ValueError:
                    pass
        return out

    def walk(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{where}.{key}" if where else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{where}[{i}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[where] = float(node)

    try:
        walk(json.loads(text), "")
    except ValueError:
        pass
    return out


def largest_relative_change(left: Path, right: Path) -> str:
    """``largest relative change R at WHERE: left -> right`` over the numbers
    both Poisson files hold at the same place; a change from zero or to or
    from NaN counts as infinite."""
    old, new = _numbers(left), _numbers(right)
    best = None
    for where in sorted(old.keys() & new.keys()):
        a, b = old[where], new[where]
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        rel = abs(b - a) / abs(a) if a else math.inf
        rel = math.inf if math.isnan(rel) else rel
        if best is None or rel > best[0]:
            best = (rel, where, a, b)
    one_side = len(old.keys() ^ new.keys())
    tail = f"; {one_side} numbers on one side only" if one_side else ""
    if best is None:
        return f"no number moved{tail}"
    rel, where, a, b = best
    return f"largest relative change {rel:.2g} at {where}: {a!r} -> {b!r}{tail}"


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
            sides = [work / path for work in works]
            if _holds_check_lines(path) and all(side.is_file() for side in sides):
                for line in field_differences(*sides):
                    print(f"  {line}")
            if _holds_poisson_numbers(path) and all(side.is_file() for side in sides):
                print(f"  {largest_relative_change(*sides)}")
        codes = sorted({(work / "out" / name / "exit_code").read_text().strip()
                        for work in works for name in RUNS})
    print(f"{len(RUNS)} runs, {len(diff)} differing files, exit codes {', '.join(codes)}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
