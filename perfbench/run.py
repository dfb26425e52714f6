"""hqmap benchmark: drives ``hqmap.cli.main`` the way a user runs ``hqmap``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/hqmap``.  ``NAME`` is one
of the workloads below, or ``all`` (the default) to run each in turn.  Each
CLI invocation runs in a fresh child interpreter (child.py), one after
another, with no extra threads; a pass is one round of the workload's
invocations.  Passes repeat until ``--seconds`` is used up (at least two).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time
around the ``cli.main`` calls), ``setup_s`` (median of several fresh
``import hqmap.cli`` + load + validate runs) and ``peak_rss_mb`` (median
over passes of the largest child resident set).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of tracer.py.

Every invocation's outputs are checked against facts known from theory
(see README.md); an invocation fails if it raises, exits non-zero, or its
outputs fail a check.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
RUN_LIMIT_S = 170.0
MIN_PASSES = 2
SETUPS_PER_PASS = 2

JOHN_NEGATIVE = {"koebe", "halfplane"}
REPORT_SUITES = ("analytic-classical", "geometry", "radial-growth", "harmonic-advisory")
ADVISORY_SUITES = {"harmonic-advisory"}


@dataclass(frozen=True)
class Workload:
    name: str
    grid_level: int
    commands: tuple                 # CLI words after the global flags, one tuple per invocation
    generated: tuple = None         # (n_analytic, n_harmonic, degree); None = built-in corpus only


WORKLOADS = {w.name: w for w in (
    # The ROADMAP's headline number: catalog maps are cheap to evaluate, so
    # Poisson scans on rings of up to 2^18 nodes dominate.
    Workload("report-builtin-l1", 1, (("report",),)),
    # Same code path, but many small evaluations of degree-12 series:
    # criterion (iii) and per-call overhead dominate, rings stay <= 2^15.
    Workload("report-series-l0", 0, (("report",),), (2, 2, 12)),
    # No Poisson or criterion (iii) work at all: boundary distances,
    # diameters, quadrature and large-array evaluation of degree-16 series.
    Workload("checks-series-l3", 3, tuple(("check", s) for s in REPORT_SUITES), (12, 12, 16)),
)}


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    bytes_written: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    spans: list = field(default_factory=list)


class Harness:
    def __init__(self, workload: Workload, seed: int, start: float, seconds: float):
        self.wl = workload
        self.seed = seed
        self.deadline = start + seconds
        self.hard_limit = start + RUN_LIMIT_S
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.corpus_path, self.docs = self._make_corpus()

    def _make_corpus(self):
        import corpus_gen
        from hqmap.corpus import load_corpus, validate_corpus

        if self.wl.generated is None:
            return None, corpus_gen.builtin_docs()
        text = corpus_gen.corpus_text(self.seed, *self.wl.generated)
        if corpus_gen.corpus_text(self.seed, *self.wl.generated) != text:
            raise RuntimeError("corpus generation is not reproducible for one seed")
        path = self.work / "corpus.json"
        path.write_text(text, newline="\n")
        validate_corpus(load_corpus(path))
        return str(path), json.loads(text)

    def _child(self, spec: dict) -> dict:
        spec = dict(spec, root=str(ROOT))
        timeout = max(1.0, self.hard_limit - time.perf_counter())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"rc": None, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        return json.loads(lines[-1])

    def setup_s(self) -> float:
        """One fresh-interpreter set-up time."""
        res = self._child({"mode": "setup", "corpus": self.corpus_path})
        if "setup_s" not in res:
            raise RuntimeError(f"setup failed: {res.get('error')}")
        return res["setup_s"]

    def argv(self, command, out_dir: Path) -> list:
        argv = ["--corpus", self.corpus_path] if self.corpus_path else []
        # numpy seeds must be non-negative
        argv += ["--grid-level", str(self.wl.grid_level), "--seed", str(self.seed % 2**32)]
        if command[0] == "report":
            argv += ["--out", str(out_dir)]
        return argv + list(command)

    def run_pass(self, pass_id: int, traced: bool, reference) -> Pass:
        p = Pass(traced)
        pass_dir = self.work / f"pass{pass_id}"
        for i, command in enumerate(self.wl.commands):
            inv = pass_dir / f"inv{i}"
            (inv / "out").mkdir(parents=True)
            spans = inv / "spans.npz" if traced else None
            res = self._child({
                "mode": "invoke", "argv": self.argv(command, inv / "out"),
                "stdout": str(inv / "stdout.txt"), "stderr": str(inv / "stderr.txt"),
                "spans": str(spans) if spans else None, "pass_id": pass_id,
            })
            p.attempted += 1
            problems = []
            if res.get("rc") != 0:
                problems.append(f"exit code {res.get('rc')!r} {res.get('error') or ''}".strip())
            else:
                problems += check_outputs(command, inv, self.docs)
            digest, size = digest_outputs(inv)
            p.digests.append(digest)
            p.bytes_written += size
            if reference is not None and digest != reference.digests[i]:
                problems.append("outputs differ from the first pass with the same seed")
            if problems:
                p.failures.append(f"pass {pass_id} {' '.join(command)}: " + "; ".join(problems))
            p.wall_s += res.get("wall_s", 0.0)
            p.cpu_s += res.get("cpu_s", 0.0)
            p.peak_rss_mb = max(p.peak_rss_mb, res.get("peak_rss_mb", 0.0))
            if spans and spans.exists():
                kept = self.work / "spans" / f"pass{pass_id}-inv{i}.npz"
                kept.parent.mkdir(exist_ok=True)
                spans.replace(kept)
                p.spans.append(kept)
        shutil.rmtree(pass_dir)
        return p

    def run_passes(self, traced_mode: bool, setups=None) -> list:
        """Passes until the deadline; traced and untraced alternate in
        traced mode.  With a ``setups`` list, set-up times are measured
        before each pass, so they sample the same stretch of time."""
        passes = []
        durations = []
        while True:
            if len(passes) >= MIN_PASSES and durations:
                if time.perf_counter() + statistics.median(durations) > self.deadline:
                    break
            traced = traced_mode and len(passes) % 2 == 1
            t0 = time.perf_counter()
            if setups is not None:
                setups += [self.setup_s() for _ in range(SETUPS_PER_PASS)]
            passes.append(self.run_pass(len(passes), traced, passes[0] if passes else None))
            durations.append(time.perf_counter() - t0)
        return passes


def check_outputs(command, inv: Path, docs: list) -> list:
    """Output checks anchored in theory; returns the problems found."""
    try:
        if command[0] == "report":
            return _check_report(inv / "out", docs)
        return _check_suite(command[1], (inv / "stdout.txt").read_text(), docs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_report(out: Path, docs: list) -> list:
    problems = []
    labels = [d["label"] for d in docs]
    for label in labels:
        verdict = json.loads((out / f"john_{label}.json").read_text())["verdict"]
        want = "john-negative" if label in JOHN_NEGATIVE else "john-positive"
        if verdict != want:
            problems.append(f"{label} is {verdict}, expected {want}")
        for name in (f"radial_{label}.csv", f"poisson_{label}.json", f"poisson_{label}.csv"):
            if not (out / name).is_file():
                problems.append(f"missing {name}")
    for suite in REPORT_SUITES:
        problems += _check_suite(suite, (out / f"checks_{suite}.jsonl").read_text(), docs)
    # the Poisson functional of the identity is the Poisson integral of 1
    trace = json.loads((out / "poisson_identity.json").read_text())["trace"]
    if not trace or max(abs(t - 1.0) for t in trace) > 1e-9:
        problems.append(f"identity Poisson trace {trace} is not within 1e-9 of 1")
    # the Koebe map is real and increasing on [0, 1): its radial length is f(r)
    with open(out / "radial_koebe.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            r, ell = float(row["r"]), float(row["ell"])
            exact = r / (1.0 - r) ** 2
            if abs(ell - exact) > 1e-8 * exact:
                problems.append(f"koebe radial length {ell!r} at r={r!r}, expected {exact!r}")
                break
    return problems


def _check_suite(suite: str, text: str, docs: list) -> list:
    reports = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not reports:
        return [f"{suite}: no reports"]
    problems = []
    if suite not in ADVISORY_SUITES:
        failed = [r["predicate"] for r in reports if not r["pass"]]
        if failed:
            problems.append(f"{suite}: failed {failed[:3]}")
    analytic = {d["label"] for d in docs if "analytic" in d["flags"]}
    expected = {
        "analytic-classical": analytic,
        "harmonic-advisory": {d["label"] for d in docs} - analytic,
        "radial-growth": {d["label"] for d in docs},
    }.get(suite, set())
    covered = {r["predicate"].rsplit(":", 1)[-1] for r in reports}
    if expected - covered:
        problems.append(f"{suite}: no reports for {sorted(expected - covered)}")
    return problems


def digest_outputs(inv: Path):
    """SHA-256 over every file an invocation wrote (stderr excluded: it
    carries warnings, not results) and their total size in bytes."""
    h = hashlib.sha256()
    size = 0
    files = sorted(p for p in inv.rglob("*")
                   if p.is_file() and p.name not in ("stderr.txt", "spans.npz"))
    for path in files:
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(inv)).encode() + b"\0" + data)
    return h.hexdigest(), size


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool):
    harness = Harness(wl, seed, time.perf_counter(), seconds)
    metrics = {}
    if trace:
        passes = harness.run_passes(traced_mode=True)
        from tracer import span_metrics

        traced = [p for p in passes if p.traced]
        plain = [p for p in passes if not p.traced]
        per_pass = [span_metrics(p.spans) for p in traced]
        for name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
        metrics["cli.bytes_written"] = statistics.median(p.bytes_written for p in passes)
        metrics["trace.overhead"] = (statistics.median(p.wall_s for p in traced)
                                     / statistics.median(p.wall_s for p in plain) - 1.0)
    else:
        harness.setup_s()  # unmeasured: leaves the bytecode cache as an installed package has it
        setups = []
        passes = harness.run_passes(traced_mode=False, setups=setups)
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.median(p.wall_s for p in passes)
        metrics["peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in passes)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    return metrics, attempted, failures, passes


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hqmap" / "cli.py").is_file():
        print(f"perfbench: no hqmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = _units()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = args.workload == "all"
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failures, passes = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        failed = len(failures)
        result["attempted"] += attempted
        result["failed"] += failed
        result["correct"] = result["correct"] and not failures
        walls = ", ".join(f"{p.wall_s:.3f}/{p.cpu_s:.3f}{' traced' if p.traced else ''}"
                          for p in passes)
        print(f"# {name} seed={args.seed}: {len(passes)} passes, wall/cpu per pass [s]: {walls}")
        for line in failures:
            print(f"#   FAIL {line}")
        for metric, value in metrics.items():
            unit = units.get(metric, "")
            result["metrics"][f"{name}.{metric}" if prefix else metric] = {"value": value, "unit": unit}
            print(f"{name:18s} {metric:36s} {value:14.6g} {unit}")
        print(f"{name:18s} {'error_rate':36s} {failed / attempted:14.6g} failed/attempted "
              f"({failed}/{attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
