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
