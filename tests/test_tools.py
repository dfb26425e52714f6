"""The field listing of ``tools/same_outputs.py``."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _write(path, docs):
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))


def test_field_differences_name_the_predicate_key_and_both_values(tmp_path):
    line = {"predicate": "deriv_distortion:koebe", "samples": 737, "pass": True,
            "witness": [0.99, 0.0], "worst_margin": -1.6e-16}
    twin = {"predicate": "classical_starlike:koebe", "worst_margin": 0.5}
    _write(tmp_path / "old.jsonl", [twin, dict(twin, worst_margin=0.25), line,
                                    {"predicate": "gone", "pass": True}])
    _write(tmp_path / "new.jsonl", [twin, dict(twin, worst_margin=0.125),
                                    dict(line, samples=3009, witness=[0.98, 0.0])])
    assert same_outputs.field_differences(tmp_path / "old.jsonl", tmp_path / "new.jsonl") == [
        "classical_starlike:koebe#2 worst_margin: 0.25 -> 0.125",
        "deriv_distortion:koebe samples: 737 -> 3009",
        "deriv_distortion:koebe witness: [0.99, 0.0] -> [0.98, 0.0]",
        "gone pass: true -> null",
    ]
    assert same_outputs.field_differences(tmp_path / "new.jsonl", tmp_path / "new.jsonl") == []


def test_check_line_files_are_the_jsonl_files_and_check_stdout():
    holds = same_outputs._holds_check_lines
    assert holds(Path("out/report-builtin-l0/checks_geometry.jsonl"))
    assert holds(Path("out/check-geometry-l3/stdout"))
    assert not holds(Path("out/poisson-koebe-l1/stdout"))
    assert not holds(Path("out/check-geometry-l3/stderr"))
    assert not holds(Path("out/report-builtin-l0/john_koebe.json"))


def test_poisson_files_are_the_poisson_csv_json_and_poisson_stdout():
    holds = same_outputs._holds_poisson_numbers
    assert holds(Path("out/report-builtin-l1/poisson_koebe.csv"))
    assert holds(Path("out/report-builtin-l1/poisson_koebe.json"))
    assert holds(Path("out/poisson-koebe-l1/stdout"))
    assert not holds(Path("out/poisson-koebe-l1/stderr"))
    assert not holds(Path("out/report-builtin-l1/john_koebe.json"))
    assert not holds(Path("out/check-geometry-l3/stdout"))


def test_largest_relative_change_names_the_number_and_where_it_is(tmp_path):
    (tmp_path / "old.csv").write_text("zeta_re,functional,n\n0.0,2.0,4096\n0.5,4.0,4096\n")
    (tmp_path / "new.csv").write_text("zeta_re,functional,n\n0.0,2.0000000000000004,4096\n"
                                      "0.5,4.000000000000004,4096\n")
    assert same_outputs.largest_relative_change(tmp_path / "old.csv", tmp_path / "new.csv") == (
        "largest relative change 1.1e-15 at row 2 functional: 4.0 -> 4.000000000000004")
    old = {"label": "koebe", "stable": False, "sup": 3.0, "trace": [1.0, 3.0]}
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(dict(old, sup=3.0, trace=[1.5, 3.0])))
    assert same_outputs.largest_relative_change(tmp_path / "old.json", tmp_path / "new.json") == (
        "largest relative change 0.5 at trace[0]: 1.0 -> 1.5")
    (tmp_path / "new.json").write_text(json.dumps(dict(old, trace=[1.0, 3.0, 9.0])))
    assert same_outputs.largest_relative_change(tmp_path / "old.json", tmp_path / "new.json") == (
        "no number moved; 1 numbers on one side only")
