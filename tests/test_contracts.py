"""Interface contracts: serialization round trips and report file formats."""

import io
import math

import numpy as np
import pytest

from hqmap import (
    CatalogPart,
    ParameterError,
    map_from_json,
    map_to_json,
    shear_qc,
)
from hqmap.corpus import dump_corpus, load_corpus, save_corpus
from hqmap.maps import ComboPart, HarmonicMap, SeriesPart
from hqmap.poisson import poisson_csv, poisson_sup


# ---------------------------------------------------------------------------
# corpus serialization


def test_map_json_roundtrip(corpus):
    for label, m in corpus.items():
        doc = map_to_json(m)
        back = map_from_json(doc)
        assert back.label == m.label
        assert back.flags == m.flags
        zs = np.array([0.3, -0.5j, 0.2 + 0.6j])
        assert np.max(np.abs(back.value(zs) - m.value(zs))) < 1e-15


def test_rotation_composite_roundtrip():
    sigma = complex(math.cos(0.8), math.sin(0.8))
    m = HarmonicMap(CatalogPart("koebe", rotation=sigma), SeriesPart((0j,)),
                    "rotated-koebe", frozenset({"SH", "SH0", "analytic"}))
    doc = map_to_json(m)
    assert doc["h"]["rotation"] == [sigma.real, sigma.imag]
    back = map_from_json(doc)
    zs = np.array([0.2, 0.4j, -0.3 + 0.1j])
    assert np.max(np.abs(back.value(zs) - m.value(zs))) < 1e-15


def test_json_schema_fixed_fields(corpus):
    doc = map_to_json(corpus["shear-k3"])
    assert set(doc) == {"label", "h", "g", "flags"}
    assert doc["h"] == {"kind": "catalog", "name": "identity"}
    assert doc["g"]["kind"] == "series"
    assert doc["g"]["coeffs"] == [[0.0, 0.0], [0.5, 0.0]]


def test_composed_parts_do_not_serialize():
    t = shear_qc(CatalogPart("koebe"), 2.0)
    assert isinstance(t.g, ComboPart)
    with pytest.raises(ParameterError):
        map_to_json(t)


def test_corpus_file_roundtrip(tmp_path, corpus):
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert sorted(back) == sorted(corpus)
    assert dump_corpus(back) == dump_corpus(corpus)


# ---------------------------------------------------------------------------
# per-point Poisson CSV


def test_poisson_csv_schema(corpus):
    buf = io.StringIO()
    poisson_csv(poisson_sup(corpus["identity"], eps_levels=(1e-2, 3e-3)), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "zeta_re,zeta_im,functional,eps,n"
    # per level: one origin record plus 4 radii x 8 angles
    assert len(lines) == 1 + 2 * (1 + 4 * 8)
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(abs(v - 1.0) for v in vals) < 1e-6
