"""Command-line front end: corpus loading, check suites, report emission.

Commands: eval, radial, check, john, poisson, report.  Outputs are plain
CSV / JSON-lines / JSON documents a human reads after the fact; identical
manifests (corpus, config, seed) produce byte-identical files.  Exit codes:
0 all checks pass, 1 a check failed, 2 usage or input error.

Each output file has one builder, shared by ``report`` and the command for
that quantity, so ``hqmap --out D poisson koebe`` writes the same bytes as
``report`` does for ``koebe``.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import johndisk, poisson, radial, suites
from .corpus import default_corpus, dump_corpus, load_corpus, read_json, validate_corpus
from .maps import R_CAP, Config, HqmapError

_REPORT_SUITES = ("analytic-classical", "geometry", "radial-growth", "harmonic-advisory")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise HqmapError(f"cannot parse complex number {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqmap",
        description="harmonic quasiconformal mapping toolkit",
    )
    parser.add_argument("--corpus", default=None, help="corpus JSON path (default: built-in)")
    parser.add_argument("--config", default=None, help="config JSON path")
    parser.add_argument("--alpha", type=float, default=None, help="order parameter for harmonic maps")
    parser.add_argument("--bigk", type=float, default=None, help="quasiconformality constant")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--grid-level", type=int, default=None,
                        help="0 to 6 (default 1); picks the Poisson eps ladder and nothing "
                        "else: 1e-2, 3e-3, 1e-3 at level 0, 1e-2, 1e-3, 1e-4 from level 1 up")
    parser.add_argument("--eps", type=float, default=None, help="boundary offset, 1e-15 to 0.5")
    parser.add_argument("--tol", type=float, default=None,
                        help="relative tolerance of every radial-length quadrature; "
                        "each profile segment is integrated to tol/4 (default 1e-9)")
    parser.add_argument("--seed", type=int, default=None, help="seed for sampled checks")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a corpus map at a point")
    p_eval.add_argument("label")
    p_eval.add_argument("z", help="complex point, e.g. 0.5+0.1i")

    p_rad = sub.add_parser("radial", help="radial profile CSV")
    p_rad.add_argument("label")
    p_rad.add_argument("theta", type=float)
    p_rad.add_argument("radii", help="comma-separated increasing radii in (0,1)")

    p_check = sub.add_parser("check", help="run a named check suite")
    p_check.add_argument("suite", help="one of: " + ", ".join(sorted(suites.SUITES)))

    p_john = sub.add_parser("john", help="John-disk estimate for a corpus map")
    p_john.add_argument("label")

    p_poi = sub.add_parser("poisson", help="Poisson-functional sup trace for a corpus map")
    p_poi.add_argument("label")

    sub.add_parser("report", help="run everything and write files to --out")
    return parser


_CONFIG_KEYS = tuple(f.name for f in fields(Config))


def _config_value(key: str, value):
    """A value from the config file, type-checked and converted as the
    matching flag's argparse type would be, so that a wrong type is an input
    error.  A number key becomes a float, so an integer too large for one
    is an input error too."""
    kind = int if key in ("grid_level", "seed") else (int, float)
    if isinstance(value, bool) or not isinstance(value, kind):
        need = "an integer" if kind is int else "a number"
        raise HqmapError(f"config key {key!r} needs {need}, got {value!r}")
    if kind is int:
        return value
    try:
        return float(value)
    except OverflowError:
        raise HqmapError(f"config key {key!r} needs a finite number, got {value!r}") from None


def _load_config(args) -> Config:
    values = {}
    if args.config:
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise HqmapError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(_CONFIG_KEYS))
        if unknown:
            raise HqmapError(f"unknown config key {unknown[0]!r}; have: "
                             + ", ".join(sorted(_CONFIG_KEYS)))
        values = {key: _config_value(key, doc[key]) for key in _CONFIG_KEYS if key in doc}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return replace(Config(), **values)


def _get_map(corpus: dict, label: str):
    try:
        return corpus[label]
    except KeyError:
        raise HqmapError(f"unknown map label {label!r}; corpus has: "
                         + ", ".join(sorted(corpus)))


def _eps_levels(config: Config):
    return (1e-2, 3e-3, 1e-3) if config.grid_level <= 0 else (1e-2, 1e-3, 1e-4)


def _require_finite(what: str, doc: dict, where: str = "") -> None:
    """Raise an input error naming the first field of ``doc``, in key order,
    that holds a NaN or infinite number.  Each output builder computes under
    ``np.errstate(all="ignore")`` and then checks its numbers here, so an
    overflow ends in this one line rather than a numpy warning.  The
    errstate is the builder's own, as ``report`` runs each builder in a pool
    thread, which the main thread's errstate does not reach."""
    for key, value in sorted(doc.items()):
        arr = np.asarray(value)
        if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
            raise HqmapError(f"{what} {key} is not finite{where}")


def _cmd_eval(args, corpus, config) -> int:
    m = _get_map(corpus, args.label)
    z = _parse_complex(args.z)
    # an overflow is reported below as its field, not as a numpy warning
    with np.errstate(all="ignore"):
        f = complex(m.value(z))
        w = m.wirtinger(z)
        fz = complex(w.fz)
        doc = {
            "label": m.label,
            "z": [z.real, z.imag],
            "f": [f.real, f.imag],
            "fz": [fz.real, fz.imag],
            "fzb": [complex(w.fzb).real, complex(w.fzb).imag],
            "dnorm": float(w.dnorm),
            "dmin": float(w.dmin),
            "jacobian": float(w.jacobian),
            # |f_zb| / |f_z| has no value where f_z = 0
            "dilatation": None if fz == 0 else float(w.dilatation),
        }
    _require_finite(f"{m.label}: eval", doc, f" at z = {z}")
    print(json.dumps(doc, sort_keys=True))
    return 0


def _write(out_dir, files) -> None:
    """Write (name, text) output files under --out, creating the directory,
    with newline-terminated lines on every platform.  An old file of the
    same name is unlinked first: ext4 flushes a truncated file on close,
    which made a rerun into one directory take 2.3 s instead of 0.3 s."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        path = out / name
        path.unlink(missing_ok=True)
        path.write_text(text, newline="\n")


def _emit(args, files) -> None:
    """Print the first (name, text) file and, with --out, write them all."""
    sys.stdout.write(files[0][1])
    if args.out:
        _write(args.out, files)


def _radial_files(m, theta, radii, config):
    with np.errstate(all="ignore"):
        profile = radial.radial_profile(m, theta, radii, config)
    _require_finite(f"{m.label}: radial", vars(profile), f" on the ray theta = {theta!r}")
    buf = io.StringIO()
    profile.to_csv(buf)
    return [(f"radial_{m.label}.csv", buf.getvalue())]


def _suite_files(name, corpus, config):
    """The JSON lines file of one suite, and whether it counts as passed
    (advisory suites always do)."""
    # every number of a line rests on its margin, which bounds._report checks
    with np.errstate(all="ignore"):
        reports, advisory = suites.run_suite(name, corpus, config)
    lines = "".join(r.to_json() + "\n" for r in reports)
    return [(f"checks_{name}.jsonl", lines)], advisory or all(r.passed for r in reports)


def _john_files(m):
    with np.errstate(all="ignore"):
        est = johndisk.john_estimate(m)
    _require_finite(f"{m.label}: john", {
        "criterion_ii": [sup for _, sup in est.criterion_ii],
        "criterion_iii": est.criterion_iii.trace,
        "decay": [est.decay.c, est.decay.delta, est.decay.residual]})
    return [(f"john_{m.label}.json", est.to_json() + "\n")]


def _poisson_files(m, config):
    """The sup-trace JSON and the per-point CSV, from one scan per ring level."""
    with np.errstate(all="ignore"):
        trace = poisson.poisson_sup(m, eps_levels=_eps_levels(config))
    _require_finite(f"{m.label}: poisson", {
        "functional": [value for scan in trace.scans for _, value, _, _ in scan.records],
        "profile_drift": [scan.drift for scan in trace.scans],
        "sup": trace.sup, "trace": trace.trace})
    buf = io.StringIO()
    poisson.poisson_csv(trace, buf)
    return [(f"poisson_{m.label}.json", poisson.poisson_trace_json(m, trace) + "\n"),
            (f"poisson_{m.label}.csv", buf.getvalue())]


def _map_files(m, radii, config):
    """The four files ``report`` writes for one map."""
    return _radial_files(m, 0.0, radii, config) + _john_files(m) + _poisson_files(m, config)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def _cmd_radial(args, corpus, config) -> int:
    m = _get_map(corpus, args.label)
    try:
        radii = np.array([float(tok) for tok in args.radii.split(",") if tok])
    except ValueError as exc:
        raise HqmapError(f"bad radius list {args.radii!r}") from exc
    _emit(args, _radial_files(m, args.theta, radii, config))
    return 0


def _cmd_check(args, corpus, config) -> int:
    if args.suite not in suites.SUITES:
        raise HqmapError(f"unknown suite {args.suite!r}; have: "
                         + ", ".join(sorted(suites.SUITES)))
    files, ok = _suite_files(args.suite, corpus, config)
    _emit(args, files)
    return 0 if ok else 1


def _cmd_john(args, corpus, config) -> int:
    _emit(args, _john_files(_get_map(corpus, args.label)))
    return 0


def _cmd_poisson(args, corpus, config) -> int:
    _emit(args, _poisson_files(_get_map(corpus, args.label), config))
    return 0


def _cmd_report(args, corpus, config) -> int:
    if not args.out:
        raise HqmapError("report needs --out DIR")
    manifest = dict(asdict(config), corpus=args.corpus or "builtin",
                    suites=list(_REPORT_SUITES))
    _write(args.out, [("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
                      ("corpus.json", dump_corpus(corpus))])

    # The check suites and the maps depend on none of each other's results,
    # so all of them run as tasks of one thread pool.  Numpy releases the GIL
    # only inside its loops, so threads overlap where the calls are large
    # (criterion (iii) blocks, Poisson rings, boundary distances) and
    # serialize on the Python between them.  Files are written in a fixed
    # order, suites first and then maps by sorted label, as each task's
    # results arrive, whatever order the tasks were submitted in.  The
    # import is here because concurrent.futures imports logging, which would
    # add about 7 ms to the start-up of every other command.
    from concurrent.futures import ThreadPoolExecutor

    radii = 1.0 - np.geomspace(0.9, 1.0 - R_CAP, 24)
    pool = ThreadPoolExecutor(max_workers=_usable_cpus())
    try:
        # maps go first: submitted after the suites, they raise peak RSS by ~9 MB
        map_futures = [pool.submit(_map_files, corpus[label], radii, config)
                       for label in sorted(corpus)]
        suite_futures = [pool.submit(_suite_files, name, corpus, config)
                         for name in _REPORT_SUITES]
        ok = True
        for future in suite_futures:
            files, suite_ok = future.result()
            _write(args.out, files)
            ok = ok and suite_ok
        for future in map_futures:
            _write(args.out, future.result())
    finally:
        # after a failure, tasks not yet started are dropped
        pool.shutdown(cancel_futures=True)
    return 0 if ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "radial": _cmd_radial,
    "check": _cmd_check,
    "john": _cmd_john,
    "poisson": _cmd_poisson,
    "report": _cmd_report,
}


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    """Serve allocations below 4 MiB from the heap and keep up to 8 MiB of
    freed heap top, where the C library is glibc; elsewhere do nothing.

    glibc maps each allocation above its dynamic threshold (128 KiB at
    start-up) with mmap and unmaps it on free, and raises the threshold
    only after freeing such a block.  The pruned boundary-distance search
    works in 0.5-1 MiB chunks, dozens per map, so left to itself a
    ``check`` process faults in every page of each one afresh: ``check
    analytic-classical`` on a 30-map corpus takes 19k minor faults and
    50 ms without these settings, and 1.1k and 40 ms with them.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
        validate_corpus(corpus)
        return _COMMANDS[args.command](args, corpus, config)
    except HqmapError as exc:
        print(f"hqmap: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError) as exc:
        print(f"hqmap: input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
