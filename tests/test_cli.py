import csv
import json
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from hqmap import cli, johndisk, suites
from hqmap.cli import main
from hqmap.corpus import default_corpus, save_corpus
from hqmap.maps import CatalogPart, Config, HarmonicMap, HqmapError, SeriesPart

from conftest import seeded_harmonic


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


def _strict_json(text):
    """The JSON document of ``text``; a NaN or Infinity token raises."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


# h = z - z^2 has f_z = h'(z) = 0 at z = 1/2; h = 1e308 (1 + z) overflows at 0.9
_CRIT = {"label": "crit", "h": {"kind": "series", "coeffs": [[0, 0], [1, 0], [-1, 0]]},
         "g": {"kind": "series", "coeffs": [[0, 0]]}, "flags": ["SH", "SH0", "analytic"]}
_HUGE = {"label": "huge", "h": {"kind": "series", "coeffs": [[1e308, 0], [1e308, 0]]},
         "g": {"kind": "series", "coeffs": [[0, 0]]}, "flags": []}


def test_eval_dilatation_is_null_where_f_z_vanishes(tmp_path, capsys):
    # it printed a bare Infinity token, which is not JSON, and exited 0
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([_CRIT]))
    code, out, err = run(capsys, "--corpus", str(path), "eval", "crit", "0.5")
    assert code == 0 and err == ""
    doc = _strict_json(out)
    assert doc["fz"] == [0.0, 0.0]
    assert doc["dilatation"] is None
    code, out, _ = run(capsys, "--corpus", str(path), "eval", "crit", "0.25")
    assert code == 0 and _strict_json(out)["dilatation"] == 0.0


@pytest.mark.parametrize("point, field", [("0.9", "f"), ("0.5+0.5i", "jacobian")])
def test_eval_non_finite_field_exits_2(point, field, tmp_path, capsys):
    # h(0.9) = 1.9e308 overflows; at 0.5 + 0.5i only |f_z|^2 = 1e616 does
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([_HUGE]))
    code, out, err = run(capsys, "--corpus", str(path), "eval", "huge", point)
    assert code == 2 and out == ""
    z = cli._parse_complex(point)
    assert err == f"hqmap: error: huge: eval {field} is not finite at z = {z}\n"


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


@pytest.mark.parametrize("command", [["check", "analytic-classical"], ["report"],
                                     ["john", "fake"]], ids=["check", "report", "john"])
def test_a_falsely_flagged_analytic_map_exits_2(command, tmp_path, capsys):
    # g = 0.3 z^2 is not zero: analytic-classical failed its theorems on this
    # map with exit 1, harmonic-advisory skipped it and john ran on it
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{
        "label": "fake", "h": {"kind": "series", "coeffs": [[0, 0], [1, 0]]},
        "g": {"kind": "series", "coeffs": [[0, 0], [0, 0], [0.3, 0]]},
        "flags": ["SH", "SH0", "analytic", "bounded"]}]))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--corpus", str(path), "--out", str(out_dir), *command)
    assert (code, out) == (2, "")
    assert err == "hqmap: error: fake: analytic flag requires g = 0\n"
    assert not out_dir.exists()


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


@pytest.mark.parametrize("label", ["", "sub/x", "sub\\x", "a\0b"],
                         ids=["empty", "slash", "backslash", "nul"])
def test_label_that_is_not_one_file_name_part_exits_2(label, tmp_path, capsys):
    # report named files after the label: NUL ended in a ValueError traceback
    # with exit 1, sub/x exited 2 after writing six files, and "" wrote john_.json
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"label": label, "h": _IDENTITY_H, "g": _ZERO_G}]))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(capsys, "--corpus", str(path), "--out", str(out_dir), "report")
    assert code == 2 and out == ""
    assert err == ("hqmap: error: a map label must be a non-empty string without '/', "
                   f"'\\' or NUL, got {label!r}\n")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("option", ["--corpus", "--config"])
@pytest.mark.parametrize("data", [
    '[{"label": "\u00e9"}]'.encode("latin-1"),
    b"[" * 100_000 + b"]" * 100_000,
    b"[" + b"9" * 5000 + b"]",
], ids=["not-utf-8", "nested-100000-deep", "integer-past-digit-limit"])
def test_unreadable_json_file_exits_2(option, data, tmp_path, capsys):
    # each used to end in a traceback with exit 1: json.load raised
    # UnicodeDecodeError, RecursionError and a plain ValueError
    path = tmp_path / "input.json"
    path.write_bytes(data)
    code, out, err = run(capsys, option, str(path), "check", "none")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"hqmap: error: cannot read {path} as UTF-8 JSON: ")


@pytest.mark.parametrize("h, g", [
    (_IDENTITY_H, {"kind": "series", "coeffs": [[0, 0], [10 ** 400, 0]]}),
    ({"kind": "catalog", "name": "koebe", "rotation": [0, 10 ** 400]}, _ZERO_G),
], ids=["series-coefficient", "rotation"])
def test_corpus_integer_too_large_for_a_float_exits_2(h, g, tmp_path, capsys):
    # complex() of a 400-digit integer used to raise OverflowError
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"label": "big", "h": h, "g": g}]))
    code, out, err = run(capsys, "--corpus", str(path), "check", "none")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "must be finite" in err


@pytest.mark.parametrize("rotation", [0, [], False, "", None],
                         ids=["zero", "empty-list", "false", "empty-string", "null"])
def test_present_rotation_must_be_a_pair(rotation, tmp_path, capsys):
    # a falsy rotation used to load as an unrotated map, and check exited 0
    path = tmp_path / "corpus.json"
    h = {"kind": "catalog", "name": "koebe", "rotation": rotation}
    path.write_text(json.dumps([{"label": "rot", "h": h, "g": _ZERO_G}]))
    code, out, err = run(capsys, "--corpus", str(path), "check", "none")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "catalog rotation must be a [re, im] pair" in err


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

    real = radial.adaptive_quads

    def unconverged(*args, **kwargs):
        return [q._replace(converged=False) for q in real(*args, **kwargs)]

    monkeypatch.setattr(radial, "adaptive_quads", unconverged)
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
    # each map gets its growth profile; a flagged map one more for its
    # classical lines, and a map with neither flag none.  The shear lines
    # share one koebe profile and build one per sheared map.
    from collections import Counter

    from hqmap import radial

    real = radial.radial_profile
    labels = Counter()

    def counting(m, *args, **kwargs):
        labels[m.label] += 1
        return real(m, *args, **kwargs)

    monkeypatch.setattr(radial, "radial_profile", counting)
    suites.run_suite("radial-growth", default_corpus(), Config(grid_level=0))
    assert labels == {"koebe": 3, "identity": 2, "halfplane": 2, "convex-poly2": 2,
                      "convex-poly3": 2, "shear-k3": 1,
                      "shear[2](koebe)": 1, "shear[3](koebe)": 1}


def test_radial_growth_tolerance_reaches_every_quadrature(monkeypatch):
    # --tol governs every radial length of the suite: each profile segment
    # is integrated to tol/4, the classical and shear lines included
    from hqmap import radial

    real = radial.adaptive_quads
    tols = []

    def spying(*args, **kwargs):
        tols.append(kwargs["rel_tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "adaptive_quads", spying)
    reports, _ = suites.run_suite("radial-growth", default_corpus(), Config(tol=1e-6))
    assert {r.predicate.split(":")[0] for r in reports} == {
        "growth_bounded", "classical_starlike", "classical_convex", "shear_sharpness"}
    assert tols and set(tols) == {2.5e-7}


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
    ("--grid-level", "7"),
    ("--grid-level", "2000"),
    ("--seed", "-1"),
])
def test_bad_config_flag(flag, value, capsys):
    code, _, err = run(capsys, flag, value, "eval", "identity", "0")
    assert code == 2
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [{"alpha": "x"}, {"grid_level": 1.5}, {"grid_level": 7},
                                 {"grid_level": 2000}, {"seed": True}, [3.0]],
                         ids=["alpha-string", "grid-level-float", "grid-level-7",
                              "grid-level-2000", "seed-bool", "not-object"])
def test_bad_config_file(doc, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--config", str(cfg), "eval", "identity", "0")
    assert code == 2
    assert err.count("\n") == 1


def test_an_eps_that_rounds_a_ring_node_onto_the_circle_exits_2(tmp_path, capsys):
    # 1 - 2.3e-16 times a ring node of modulus 1 + 2.2e-16 rounds to 1, a
    # point the user never gave, so the offset itself is the input error
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"eps": 2.3e-16}))
    for argv in (["--eps", "2.3e-16"], ["--config", str(cfg)]):
        code, out, err = run(capsys, *argv, "check", "analytic-classical")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "eps" in err, argv
    code, _, err = run(capsys, "--eps", "1e-15", "check", "analytic-classical")
    assert code == 0 and err == ""


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


@pytest.mark.parametrize("key", ["alpha", "bigk", "eps", "tol"])
def test_config_integer_too_large_for_a_float_exits_2(key, tmp_path, capsys):
    # a 400-digit alpha or K passed Config, since an int compares below
    # math.inf, and alpha then raised OverflowError in harmonic-advisory;
    # as tol it was accepted silently
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: 10 ** 400}))
    code, out, err = run(capsys, "--config", str(cfg), "check", "none")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and repr(key) in err


def test_config_file_numbers_are_floats_as_the_flags_give(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha": 4, "bigk": 2, "tol": 1}))
    parser = cli._build_parser()
    from_file = cli._load_config(parser.parse_args(["--config", str(cfg), "check", "none"]))
    from_flags = cli._load_config(parser.parse_args(
        ["--alpha", "4", "--bigk", "2", "--tol", "1", "check", "none"]))
    assert from_file == from_flags
    assert all(type(getattr(from_file, key)) is float for key in ("alpha", "bigk", "tol"))


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


def _cli_process(tmp_path, *argv):
    """``python -m hqmap.cli ARGV`` in a fresh interpreter, with Python's
    default warning filters rather than the test suite's."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "hqmap.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, timeout=300)


# runs ``main`` on its arguments, then names on stderr each of the modules
# ``numpy.random`` and ``hashlib`` (with OpenSSL, about 5 MB resident) that
# the run imported
_IMPORT_PROBE = ("import sys\nfrom hqmap.cli import main\ncode = main(sys.argv[1:])\n"
                 "print(*sorted({'numpy.random', 'hashlib'} & sys.modules.keys()), "
                 "file=sys.stderr)\nsys.exit(code)\n")

_SAMPLED_GEOMETRY_LINES = {"hyp_triangle", "hyp_mobius_invariance"}


def test_no_command_imports_numpy_random(tmp_path, capsys):
    # the geometry suite draws its sample from the standard-library
    # generator: a seed's lines repeat, and seeds 0 and 1 give other
    # triangle and Moebius lines and the same fixed-sample ones
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in (["--grid-level", "1", "--out", "out", "report"],
                 ["--seed", "0", "check", "geometry"]):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "\n"), argv
    lines = {}
    for seed in ("0", "1"):
        code, out, _ = run(capsys, "--seed", seed, "check", "geometry")
        assert code == 0
        lines[seed] = {json.loads(line)["predicate"]: line for line in out.splitlines()}
    assert "".join(f"{line}\n" for line in lines["0"].values()) == done.stdout
    moved = {name for name in lines["0"] if lines["0"][name] != lines["1"][name]}
    assert moved == _SAMPLED_GEOMETRY_LINES


def test_report_writes_nothing_to_stderr(tmp_path):
    # series maps are evaluated at 1 - eps = 0.9999 by design; each such
    # call used to print a warning line from the report's pool threads
    done = _cli_process(tmp_path, "--grid-level", "1", "--out", "out", "report")
    assert done.returncode == 0
    assert done.stderr == b""


def test_check_on_series_maps_writes_nothing_to_stderr(tmp_path):
    save_corpus({m.label: m for m in (seeded_harmonic(1, 12), seeded_harmonic(2, 16))},
                tmp_path / "corpus.json")
    done = _cli_process(tmp_path, "--corpus", "corpus.json", "check", "harmonic-advisory")
    assert done.returncode == 0
    assert done.stdout.count(b"\n") > 0
    assert done.stderr == b""


# h = 1.2e308 z, g = 1e308 z: |f_z| + |f_zb| overflows at every point
_HUGE_NORM = {"label": "wide", "h": {"kind": "series", "coeffs": [[0, 0], [1.2e308, 0]]},
              "g": {"kind": "series", "coeffs": [[0, 0], [1e308, 0]]}, "flags": []}


@pytest.mark.parametrize("doc, argv, line", [
    (_HUGE, ["radial", "huge", "0", "0.5,0.9"],
     "huge: radial abs_f is not finite on the ray theta = 0.0"),
    (_HUGE, ["poisson", "huge"], "huge: poisson functional is not finite"),
    (_HUGE, ["john", "huge"], "huge: criterion ratio is not finite at z = 0j"),
    (_HUGE, ["check", "radial-growth"],
     "growth_bounded:huge: margin is not finite at z = (0.51+0j)"),
    (_HUGE, ["check", "harmonic-advisory"],
     "huge: two_point_growth: margin is not finite at z = (0.9+0j)"),
    # every builder runs in a pool thread, out of reach of the main
    # thread's errstate: this run printed five overflow warnings from them
    (_HUGE, ["--out", "out", "report"],
     "growth_bounded:huge: margin is not finite at z = (0.51+0j)"),
    (_HUGE_NORM, ["john", "wide"], "wide: derivative norm is not finite at z = 0j"),
    (_HUGE_NORM, ["eval", "wide", "0.5"], "wide: derivative norm is not finite at z = 0j"),
], ids=["radial", "poisson", "john", "radial-growth", "harmonic-advisory", "report",
        "john-norm", "eval-norm"])
def test_an_overflowing_map_prints_one_error_line(doc, argv, line, tmp_path):
    # radial and poisson wrote inf, nan and Infinity with exit 0, and every
    # command printed numpy overflow warnings ahead of its error line
    (tmp_path / "corpus.json").write_text(json.dumps([doc]))
    done = _cli_process(tmp_path, "--corpus", "corpus.json", *argv)
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr.decode() == f"hqmap: error: {line}\n"


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


def _clear_sample_caches():
    from hqmap import geometry

    geometry.circle_nodes.cache_clear()
    johndisk._level_boxes.cache_clear()


def test_report_builds_the_map_independent_samples_once(tmp_path, monkeypatch):
    # with two workers, whose first maps miss the cleared caches together,
    # criterion (iii)'s boxes are built once per level (6 maps x 3 levels
    # made 18 builds) and each ring size once: every caller of a size gets
    # the same array
    from hqmap import geometry

    _clear_sample_caches()
    ring = geometry.circle_nodes
    rings = {}
    box_builds = []
    real_boxes = geometry.boundary_boxes

    def kept_ring(n):
        nodes = ring(n)
        rings.setdefault(n, []).append(nodes)
        return nodes

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(geometry, "circle_nodes", kept_ring)
    monkeypatch.setattr(geometry, "boundary_boxes",
                        lambda *a: box_builds.append(a) or real_boxes(*a))
    assert main(["--grid-level", "1", "--out", str(tmp_path), "report"]) == 0
    assert sorted(reach for *_, reach in box_builds) == [johndisk._reach(k) for k in range(3)]
    assert 1 << 18 in rings
    for n, got in rings.items():
        assert all(nodes is got[0] for nodes in got), n


def test_report_cold_and_warm_sample_caches_write_the_same_bytes(tmp_path):
    # a report that fills the caches and one that reads them write the same
    # bytes, so no caller writes into a cached sample
    _clear_sample_caches()
    for run_no in range(2):
        for level in ("0", "1"):
            assert main(["--grid-level", level, "--out",
                         str(tmp_path / f"{level}-{run_no}"), "report"]) == 0
    for level in ("0", "1"):
        cold, warm = tmp_path / f"{level}-0", tmp_path / f"{level}-1"
        names = sorted(p.name for p in cold.iterdir())
        assert sorted(p.name for p in warm.iterdir()) == names
        for name in names:
            assert (warm / name).read_bytes() == (cold / name).read_bytes(), (level, name)


def test_report_rerun_into_the_same_out_writes_the_same_bytes(report_dir, tmp_path):
    # a second report into a used directory replaces each file rather than
    # truncating it: a hard link to an old file keeps the old bytes, and a
    # stale file longer than its new text leaves no tail behind
    out = tmp_path / "out"
    link = tmp_path / "corpus-link.json"
    argv = ["--grid-level", "0", "--out", str(out), "report"]
    assert main(argv) == 0
    names = sorted(p.name for p in report_dir.iterdir())
    (out / "manifest.json").write_text("stale\n" * 10_000)
    os.link(out / "corpus.json", link)
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (report_dir / name).read_bytes(), name
    assert link.read_bytes() == (report_dir / "corpus.json").read_bytes()
    assert not link.samefile(out / "corpus.json")


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
    assert err == ("hqmap: error: crit-zero: sense-reversing, |f_zb| >= |f_z| "
                   "(witness z = (0.15+0j))\n")


@pytest.mark.parametrize("command", ["john", "poisson"])
def test_sense_reversal_near_the_circle_exits_2(command, tmp_path, capsys):
    # g' = 1.1 z^200 overtakes h' = 1 at |z| = 1.1^(-1/200) = 0.99952, past
    # the load grid; both commands used to exit 0, john with john-positive
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{
        "label": "fold",
        "h": {"kind": "series", "coeffs": [[0.0, 0.0], [1.0, 0.0]]},
        "g": {"kind": "series", "coeffs": [[0.0, 0.0]] * 201 + [[1.1 / 201, 0.0]]},
        "flags": ["SH", "SH0", "bounded"]}]))
    code, out, err = run(capsys, "--corpus", str(path), "--out", str(tmp_path / "out"),
                         command, "fold")
    assert code == 2 and out == ""
    assert err.startswith("hqmap: error: fold: sense-reversing") and err.count("\n") == 1
    assert abs(complex(err.split("witness z = ")[1].rstrip(")\n") + ")")) > 0.9995


def test_john_vanishing_decay_fit_norm_exits_2(decay_zero_map, tmp_path, capsys, monkeypatch):
    # log(0) in the decay fit used to write "delta": NaN with exit 0
    monkeypatch.setattr(cli, "default_corpus", lambda: {"convex-poly2": decay_zero_map})
    code, out, err = run(capsys, "--out", str(tmp_path), "john", "convex-poly2")
    assert code == 2
    assert out == ""
    assert err == ("hqmap: error: convex-poly2: sense-reversing, |f_zb| >= |f_z| "
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


# ---------------------------------------------------------------------------
# allocator thresholds


class _FakeLibc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_main_pins_the_malloc_thresholds(capsys, monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert run(capsys, "eval", "identity", "0.5+0i")[0] == 0
    # glibc's M_MMAP_THRESHOLD (-3) to 4 MiB and M_TRIM_THRESHOLD (-1) to 8 MiB
    assert libc.calls == [(-3, 4 << 20), (-1, 8 << 20)]


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                         ids=["no-libc", "no-mallopt"])
def test_main_runs_where_mallopt_is_missing(cdll, capsys, monkeypatch):
    argv = ("--grid-level", "0", "check", "geometry")
    expected = run(capsys, *argv)
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0
