import csv
import json
import threading
import warnings
from dataclasses import fields

import pytest

from hqmap import cli, johndisk, suites
from hqmap.cli import main
from hqmap.corpus import default_corpus, save_corpus
from hqmap.maps import CatalogPart, Config, HarmonicMap, HqmapError, SeriesPart


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# eval


def test_eval_identity(capsys):
    code, out, _ = run(capsys, "eval", "identity", "0.5+0i")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == [0.5, 0.0]
    assert doc["dnorm"] == 1.0


def test_eval_koebe(capsys):
    code, out, _ = run(capsys, "eval", "koebe", "0.5+0i")
    doc = json.loads(out)
    assert code == 0
    assert doc["f"][0] == pytest.approx(2.0)
    assert doc["dnorm"] == pytest.approx(12.0)


def test_eval_shear(capsys):
    code, out, _ = run(capsys, "eval", "shear-k3", "0.5+0i")
    doc = json.loads(out)
    assert doc["f"][0] == pytest.approx(0.75)
    assert doc["dnorm"] == pytest.approx(1.5)
    assert doc["dilatation"] == pytest.approx(0.5)


def test_eval_unknown_label(capsys):
    code, _, err = run(capsys, "eval", "lens", "0.5")
    assert code == 2
    assert "unknown map label" in err


def test_eval_bad_point(capsys):
    code, _, err = run(capsys, "eval", "identity", "half")
    assert code == 2


def test_eval_nan_point(capsys):
    code, out, err = run(capsys, "eval", "koebe", "nan+0i")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "not in the open unit disk" in err


# ---------------------------------------------------------------------------
# radial


def test_radial_csv(capsys):
    code, out, _ = run(capsys, "radial", "koebe", "0.0", "0.3,0.5,0.7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("theta,r,ell")
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["r"]) == 0.5
    assert float(row["ell"]) == pytest.approx(2.0, rel=1e-8)


def test_radial_bad_grid(capsys):
    code, _, err = run(capsys, "radial", "koebe", "0.0", "0.5,0.3")
    assert code == 2


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_radial_rejects_non_finite_angle(theta, capsys):
    code, out, err = run(capsys, "radial", "koebe", theta, "0.5")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"theta = {theta}" in err


@pytest.mark.parametrize("radii", [",", "0.3,nan,0.7"], ids=["empty", "nan"])
def test_radial_bad_radius_list(radii, capsys):
    code, out, err = run(capsys, "radial", "koebe", "0", radii)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "radial profile" in err


# ---------------------------------------------------------------------------
# check suites


def test_check_none_suite(capsys):
    code, out, _ = run(capsys, "check", "none")
    assert code == 0
    assert out == ""


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "everything")
    assert code == 2
    assert "unknown suite" in err


def test_check_geometry(capsys):
    code, out, _ = run(capsys, "--grid-level", "0", "check", "geometry")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert all(d["pass"] for d in docs)
    assert any(d["predicate"].startswith("stolz") for d in docs)


def test_check_analytic_classical(capsys):
    code, out, _ = run(capsys, "--grid-level", "0", "check", "analytic-classical")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) > 30
    assert all(d["pass"] for d in docs)
    # canonical ordering: sorted by predicate then witness
    keys = [(d["predicate"], d["witness"][0], d["witness"][1]) for d in docs]
    assert keys == sorted(keys)


# h'(0) = NaN: the derivative coefficient 2e308 overflows
_NAN_JACOBIAN = {"label": "big", "g": {"kind": "series", "coeffs": [[0, 0]]},
                 "h": {"kind": "series", "coeffs": [[0, 0], [1, 0], [1e308, 0]]}}


@pytest.mark.parametrize("flags", [["SH", "SH0", "analytic"], []], ids=["flagged", "bare"])
@pytest.mark.parametrize("command", [["eval", "big", "0"], ["check", "analytic-classical"]],
                         ids=["eval", "check"])
def test_nan_jacobian_corpus_exits_2(flags, command, tmp_path, capsys):
    # both used to load: eval printed NaN tokens with exit 0, and check wrote
    # "worst_margin": NaN lines with exit 1
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([dict(_NAN_JACOBIAN, flags=flags)]))
    code, out, err = run(capsys, "--corpus", str(path), *command)
    assert code == 2 and out == ""
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags, point", [(["SH"], "0"), ([], "0.1")], ids=["SH", "bare"])
def test_overflowing_series_coefficient_exits_2(flags, point, tmp_path, capsys):
    # the derivative coefficient 2e308 overflows; with warnings as errors,
    # any numpy warning printed ahead of the one error line fails the run
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([dict(_NAN_JACOBIAN, flags=flags)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "--corpus", str(path), "eval", "big", point)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "series coefficient 2 gives a non-finite d1 coefficient" in err


def test_non_finite_margin_exits_2(tmp_path, capsys):
    # h = z + 2e305 z^29 has finite coefficients and derivative coefficients,
    # but near the circle C |f| / (1 - |z|) overflows and the relative margin
    # is NaN: the lines used to be written as "worst_margin": NaN with exit 1
    coeffs = [[0, 0], [1, 0]] + [[0, 0]] * 27 + [[2e305, 0]]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"label": "big", "h": {"kind": "series", "coeffs": coeffs},
                                 "g": {"kind": "series", "coeffs": [[0, 0]]},
                                 "flags": ["SH", "SH0", "analytic"]}]))
    code, out, err = run(capsys, "--corpus", str(path), "--grid-level", "0",
                         "check", "analytic-classical")
    assert code == 2 and out == "" and "NaN" not in out
    assert err.count("\n") == 1
    assert "big: deriv_value_bound: margin is not finite at z = " in err


@pytest.mark.parametrize("eps", ["1e-3", "0.5"])
def test_check_boundary_offset_keeps_targets_inside_the_ring(eps, capsys):
    # the lower-bound targets reach |z| = 0.999, on or outside the ring of
    # radius 1 - eps: every boundary_dist_lower line used to fail unconverged
    code, out, _ = run(capsys, "--eps", eps, "--grid-level", "0", "check", "analytic-classical")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    lower = [d for d in lines if d["predicate"].startswith("boundary_dist_lower:")]
    assert lower and all(d["pass"] for d in lower)


def test_check_sense_reversing_corpus(tmp_path, capsys):
    corpus = default_corpus()
    corpus["reversed"] = type(corpus["identity"])(
        corpus["identity"].g.__class__((0j, 0.5)),
        corpus["identity"].g.__class__((0j, 1.0)),
        "reversed",
    )
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    code, _, err = run(capsys, "--corpus", str(path), "check", "none")
    assert code == 2
    assert "sense-reversing" in err


def test_radial_growth_without_koebe(tmp_path, capsys):
    # the shear-sharpness base map comes from the catalog, not the corpus
    path = tmp_path / "corpus.json"
    save_corpus({"identity": default_corpus()["identity"]}, path)
    code, out, _ = run(capsys, "--grid-level", "0", "--corpus", str(path),
                       "check", "radial-growth")
    assert code == 0
    _, builtin, _ = run(capsys, "--grid-level", "0", "check", "radial-growth")

    def shear_rows(text):
        return [line for line in text.splitlines() if "shear_sharpness" in line]

    assert len(shear_rows(out)) == 4
    assert shear_rows(out) == shear_rows(builtin)


def test_user_map_qc_comes_from_grid(tmp_path, capsys):
    # f = z + conj(0.8 z) has K = (1 + 0.8)/(1 - 0.8) = 9 whatever its label
    m = HarmonicMap(CatalogPart("identity"), SeriesPart((0j, 0.8 + 0j)), "shear-k3",
                    frozenset({"SH"}))
    path = tmp_path / "corpus.json"
    save_corpus({"shear-k3": m}, path)
    code, out, _ = run(capsys, "--grid-level", "0", "--corpus", str(path),
                       "check", "harmonic-advisory")
    assert code == 0
    # predicates that take no K report null
    ks = {k if k is None else round(k, 9)
          for k in (json.loads(line)["K"] for line in out.splitlines())}
    assert ks == {None, 9.0}


_IDENTITY_H = {"kind": "catalog", "name": "identity"}


@pytest.mark.parametrize("h,g", [
    (_IDENTITY_H, {"kind": "series", "coeffs": [[0.0, 0.0], [1]]}),
    (_IDENTITY_H, {"kind": "series", "coeffs": "abc"}),
    (_IDENTITY_H, {"kind": "series", "coeffs": [[0.0, 0.0], [float("nan"), 0.0]]}),
    (_IDENTITY_H, {"kind": "series", "coeffs": [[0.0, 0.0], ["0.1", 0.0]]}),
    ({"kind": "catalog", "name": "koebe", "rotation": [1]}, {"kind": "series", "coeffs": [[0, 0]]}),
    ({"kind": "catalog", "name": "koebe", "rotation": [float("nan"), 0.0]},
     {"kind": "series", "coeffs": [[0, 0]]}),
    (_IDENTITY_H, "series"),
    ({"kind": "catalog", "name": ["koebe"]}, {"kind": "series", "coeffs": [[0, 0]]}),
], ids=["short-pair", "coeffs-string", "nan-coeff", "string-coeff", "short-rotation",
        "nan-rotation", "part-not-object", "name-not-string"])
def test_malformed_corpus_part(h, g, tmp_path, capsys):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"label": "bad", "h": h, "g": g, "flags": []}]))
    code, out, err = run(capsys, "--corpus", str(path), "eval", "bad", "0.5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", ["SH", ["SH", 1], ["analytc"]],
                         ids=["string", "non-string-entry", "unknown-flag"])
def test_malformed_corpus_flags(flags, tmp_path, capsys):
    # a bare string used to load as its letters, dropping the SH check
    path = tmp_path / "corpus.json"
    doc = {"label": "bad", "h": _IDENTITY_H, "g": {"kind": "series", "coeffs": [[0, 0]]},
           "flags": flags}
    path.write_text(json.dumps([doc]))
    code, out, err = run(capsys, "--corpus", str(path), "eval", "bad", "0.5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "flags" in err


_ZERO_G = {"kind": "series", "coeffs": [[0, 0]]}


@pytest.mark.parametrize("doc", [
    {"a": 1},
    ["x"],
    [{"label": 5, "h": _IDENTITY_H, "g": _ZERO_G}],
    [{"label": "a", "h": _IDENTITY_H, "g": _ZERO_G},
     {"label": "a", "h": {"kind": "catalog", "name": "koebe"}, "g": _ZERO_G}],
], ids=["not-a-list", "entry-not-object", "label-not-string", "repeated-label"])
def test_malformed_corpus_shape(doc, tmp_path, capsys):
    # the first three used to end in a TypeError traceback with exit code 1,
    # and a repeated label used to keep only the last entry and exit 0
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--corpus", str(path), "eval", "a", "0.5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("hqmap: error:")


def test_k_free_suite_reports_write_null_k(tmp_path, capsys):
    # only shear_sharpness takes a K in the geometry and radial-growth suites
    path = tmp_path / "corpus.json"
    save_corpus({"identity": default_corpus()["identity"]}, path)
    ks = {}
    for suite in ("geometry", "radial-growth"):
        code, out, _ = run(capsys, "--grid-level", "0", "--corpus", str(path),
                           "check", suite)
        assert code == 0
        for line in out.splitlines():
            doc = json.loads(line)
            ks.setdefault(doc["predicate"].split(":")[0], set()).add(doc["K"])
    assert ks.pop("shear_sharpness") == {2.0, 3.0}
    assert set(ks) == {"stolz_angle_bound", "hyp_triangle", "hyp_mobius_invariance",
                       "boundary_distance_identity", "growth_bounded",
                       "classical_starlike", "classical_convex"}
    assert all(k == {None} for k in ks.values())


def test_custom_corpus_roundtrip(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    save_corpus(default_corpus(), path)
    code, out, _ = run(capsys, "--corpus", str(path), "eval", "koebe", "0.5")
    assert code == 0
    assert json.loads(out)["f"][0] == pytest.approx(2.0)


def test_check_failure_exit_code(tmp_path, capsys):
    # a non-univalent analytic entry violates the distortion bounds, so the
    # classical suite reports a failure and the aggregate exit code is 1
    corpus = {
        "crowded": type(default_corpus()["identity"])(
            default_corpus()["identity"].g.__class__((0j, 1.0, 2.5)),
            default_corpus()["identity"].g.__class__((0j,)),
            "crowded",
            frozenset({"SH", "SH0", "analytic"}),
        )
    }
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    code, out, _ = run(capsys, "--grid-level", "0", "--corpus", str(path),
                       "check", "analytic-classical")
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert any(not d["pass"] for d in docs)


def test_check_radial_growth_unconverged_quadrature_fails(monkeypatch, capsys):
    # every radial-growth line rests on radial-length quadrature: when it
    # reports converged=False the line fails and its notes say why
    from hqmap import radial

    code, out, _ = run(capsys, "--grid-level", "0", "check", "radial-growth")
    assert code == 0
    before = [json.loads(line) for line in out.splitlines()]
    assert all("did not converge" not in d["notes"] for d in before)

    real = radial.adaptive_quad

    def unconverged(*args, **kwargs):
        return real(*args, **kwargs)._replace(converged=False)

    monkeypatch.setattr(radial, "adaptive_quad", unconverged)
    code, out, _ = run(capsys, "--grid-level", "0", "check", "radial-growth")
    assert code == 1
    after = [json.loads(line) for line in out.splitlines()]
    assert [d["predicate"] for d in after] == [d["predicate"] for d in before]
    kinds = {d["predicate"].split(":")[0] for d in after}
    assert {"growth_bounded", "classical_starlike", "classical_convex",
            "shear_sharpness"} <= kinds
    for old, new in zip(before, after):
        assert not new["pass"], new["predicate"]
        assert new["notes"].startswith(old["notes"])
        assert new["notes"].endswith("radial-length quadrature did not converge")
        assert new["worst_margin"] == old["worst_margin"]


def test_radial_growth_classical_quadratures_only_for_flagged_maps(monkeypatch):
    # a map with neither flag writes no classical line, so it gets no
    # quadrature: 5 flagged built-ins x 3 radii, none for shear-k3
    from hqmap import radial

    real = radial.classical_bounds
    labels = []

    def counting(m, *args, **kwargs):
        labels.append(m.label)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(radial, "classical_bounds", counting)
    suites.run_suite("radial-growth", default_corpus(), Config(grid_level=0))
    assert len(labels) == 15
    assert "shear-k3" not in labels


def test_bad_config_value(capsys):
    code, _, err = run(capsys, "--alpha", "1.0", "check", "none")
    assert code == 2


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "nan"),
    ("--bigk", "inf"),
    ("--eps", "nan"),
    ("--tol", "0"),
    ("--tol", "nan"),
    ("--grid-level", "-5"),
    ("--seed", "-1"),
])
def test_bad_config_flag(flag, value, capsys):
    code, _, err = run(capsys, flag, value, "eval", "identity", "0")
    assert code == 2
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [{"alpha": "x"}, {"grid_level": 1.5}, {"seed": True}, [3.0]],
                         ids=["alpha-string", "grid-level-float", "seed-bool", "not-object"])
def test_bad_config_file(doc, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--config", str(cfg), "eval", "identity", "0")
    assert code == 2
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc,key", [({"r_cap": 0.99}, "r_cap"), ({"alpah": 3}, "alpah"),
                                     ({"qc_k": 2.0}, "qc_k")],
                         ids=["removed-field", "typo", "field-name-before-rename"])
def test_unknown_config_key(doc, key, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--config", str(cfg), "check", "none")
    assert code == 2
    assert err.count("\n") == 1 and repr(key) in err
    assert err.endswith("have: alpha, bigk, eps, grid_level, seed, tol\n")


def test_config_fields_are_the_config_keys():
    # every Config field is a config-file key and a flag of the same name
    assert cli._CONFIG_KEYS == tuple(f.name for f in fields(Config))
    assert set(cli._CONFIG_KEYS) <= set(vars(cli._build_parser().parse_args(["report"])))


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha": 4.0, "grid_level": 0}))
    code, out, _ = run(capsys, "--config", str(cfg), "eval", "identity", "0")
    assert code == 0


# ---------------------------------------------------------------------------
# john / poisson commands


def test_john_identity(capsys):
    code, out, _ = run(capsys, "john", "identity")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "john-positive"


def test_john_koebe(capsys):
    code, out, _ = run(capsys, "john", "koebe")
    doc = json.loads(out)
    assert doc["verdict"] == "john-negative"


def test_poisson_identity(capsys):
    code, out, _ = run(capsys, "--grid-level", "0", "poisson", "identity")
    assert code == 0
    doc = json.loads(out)
    assert doc["sup"] == pytest.approx(1.0, abs=1e-6)
    assert doc["stable"]


# ---------------------------------------------------------------------------
# report


def test_report_needs_out(capsys):
    code, _, err = run(capsys, "report")
    assert code == 2


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("report")
    assert main(["--grid-level", "0", "--out", str(out_dir), "report"]) == 0
    return out_dir


def test_report_writes_files(report_dir):
    names = {p.name for p in report_dir.iterdir()}
    assert "manifest.json" in names
    assert "corpus.json" in names
    assert "checks_analytic-classical.jsonl" in names
    assert "john_koebe.json" in names
    assert "poisson_identity.json" in names
    assert "radial_halfplane.csv" in names


def test_commands_write_report_files(report_dir, tmp_path, capsys):
    # the poisson and john commands share report's builders, and the
    # Poisson JSON trace and CSV come from the same scans
    for command in ("poisson", "john"):
        code, _, _ = run(capsys, "--grid-level", "0", "--out", str(tmp_path),
                         command, "koebe")
        assert code == 0
    for name in ("poisson_koebe.json", "poisson_koebe.csv", "john_koebe.json"):
        assert (tmp_path / name).read_bytes() == (report_dir / name).read_bytes()

    doc = json.loads((tmp_path / "poisson_koebe.json").read_text())
    with open(tmp_path / "poisson_koebe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(doc["trace"]) == len(doc["eps"]) == 3
    for eps, sup in zip(doc["eps"], doc["trace"]):
        level = [float(r["functional"]) for r in rows if float(r["eps"]) == eps]
        assert level
        assert sup == max(level)


def test_report_single_worker_same_bytes(report_dir, tmp_path, monkeypatch):
    # the per-map stage writes the same bytes whatever the worker count
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["--grid-level", "0", "--out", str(tmp_path), "report"]) == 0
    names = sorted(p.name for p in report_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (report_dir / name).read_bytes(), name


def test_report_map_error_exits_2(tmp_path, capsys, monkeypatch):
    # an input error raised inside one map's task ends the run with one line
    john_estimate = johndisk.john_estimate

    def failing(m, **kwargs):
        if m.label == "koebe":
            raise HqmapError("koebe: injected failure")
        return john_estimate(m, **kwargs)

    monkeypatch.setattr(johndisk, "john_estimate", failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    corpus = default_corpus()
    path = tmp_path / "corpus.json"
    save_corpus({k: corpus[k] for k in ("identity", "koebe", "shear-k3")}, path)
    codes = []
    argv = ["--grid-level", "0", "--corpus", str(path), "--out", str(tmp_path / "out"),
            "report"]
    worker = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert codes == [2]
    err = capsys.readouterr().err
    assert err == "hqmap: error: koebe: injected failure\n"


def test_report_suite_error_exits_2(tmp_path, capsys, monkeypatch):
    # an input error raised inside one suite's task, which shares the pool
    # with the maps' tasks, ends the run with one line
    run_suite = suites.run_suite

    def failing(name, corpus, config):
        if name == "geometry":
            raise HqmapError("geometry: injected failure")
        return run_suite(name, corpus, config)

    monkeypatch.setattr(suites, "run_suite", failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    corpus = default_corpus()
    path = tmp_path / "corpus.json"
    save_corpus({k: corpus[k] for k in ("identity", "koebe", "shear-k3")}, path)
    codes = []
    argv = ["--grid-level", "0", "--corpus", str(path), "--out", str(tmp_path / "out"),
            "report"]
    worker = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert codes == [2]
    err = capsys.readouterr().err
    assert err == "hqmap: error: geometry: injected failure\n"


def test_john_zero_denominator_exits_2(tmp_path, capsys):
    # h = z - (10/3) z^2 has h'(0.15) = 0 at a core z-radius of criterion (iii)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{
        "label": "crit-zero",
        "h": {"kind": "series", "coeffs": [[0.0, 0.0], [1.0, 0.0], [-10.0 / 3.0, 0.0]]},
        "g": {"kind": "series", "coeffs": [[0.0, 0.0]]},
        "flags": []}]))
    code, out, err = run(capsys, "--corpus", str(path), "john", "crit-zero")
    assert code == 2
    assert out == ""
    assert err == ("hqmap: error: crit-zero: derivative norm vanishes "
                   "(witness z = (0.15+0j))\n")


def test_john_vanishing_decay_fit_norm_exits_2(decay_zero_map, tmp_path, capsys, monkeypatch):
    # log(0) in the decay fit used to write "delta": NaN with exit 0
    monkeypatch.setattr(cli, "default_corpus", lambda: {"convex-poly2": decay_zero_map})
    code, out, err = run(capsys, "--out", str(tmp_path), "john", "convex-poly2")
    assert code == 2
    assert out == ""
    assert err == ("hqmap: error: convex-poly2: derivative norm vanishes "
                   f"(witness z = {decay_zero_map.at})\n")
    assert list(tmp_path.iterdir()) == []


def test_john_overflowing_criterion_ii_ratio_exits_2(tiny_norm_map, tmp_path, capsys,
                                                    monkeypatch):
    # criterion (ii) at x = 0.3 overflowed to inf, and john_convex-poly2.json
    # carried a bare Infinity token
    monkeypatch.setattr(cli, "default_corpus", lambda: {"convex-poly2": tiny_norm_map})
    code, out, err = run(capsys, "--out", str(tmp_path), "john", "convex-poly2")
    assert code == 2
    assert out == ""
    assert err == ("hqmap: error: convex-poly2: criterion ratio is not finite at "
                   f"z = {tiny_norm_map.at}\n")
    assert list(tmp_path.iterdir()) == []


def test_report_empty_corpus(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    path.write_text("[]")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "--corpus", str(path), "--out", str(out_dir), "report")
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "checks_analytic-classical.jsonl", "checks_geometry.jsonl",
        "checks_harmonic-advisory.jsonl", "checks_radial-growth.jsonl",
        "corpus.json", "manifest.json"]
