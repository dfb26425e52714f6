"""Named check suites over a corpus: bundles of inequality predicates with
deterministic grids, used by the command-line runner and the tests.

Suite results are lists of CheckReports in canonical order (predicate name,
then witness), so repeated runs with the same manifest serialize to
byte-identical JSON lines.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, geometry, johndisk, radial
from .corpus import default_corpus
from .maps import CatalogPart, Config, HarmonicMap, ParameterError, qc_constant
from .transforms import shear_qc


def _scale(config: Config) -> float:
    return 2.0 ** (config.grid_level - 1)


def suite_grid(config: Config) -> np.ndarray:
    n_r = max(8, round(48 * _scale(config)))
    n_a = max(8, round(64 * _scale(config)))
    return geometry.disk_grid(n_r, n_a)


def _sorted_reports(reports) -> list:
    return sorted(
        reports,
        key=lambda r: (r.predicate, r.witness.real, r.witness.imag),
    )


def _inequality_family(m: HarmonicMap, alpha: float, qc_k: float,
                       config: Config, tag: str) -> list:
    pts = suite_grid(config)
    eps = config.eps
    fit = johndisk.decay_fit(m) if "bounded" in m.flags else None
    try:
        out = [
            bounds.check_distortion(m, alpha, pts),
            bounds.check_two_point_growth(m, alpha, qc_k),
            bounds.check_derivative_value_bound(m, alpha, qc_k, pts),
            bounds.check_weighted_deriv_growth(m, alpha),
            bounds.check_boundary_dist_lower(m, qc_k, eps=eps),
            bounds.check_harnack(m, 0.9 + 0.0j, alpha),
            bounds.check_displacement(m, qc_k, alpha, 0.9 + 0.0j),
        ]
        if fit is not None and fit.hypothesis_holds():
            out.append(bounds.check_arc_image_diameter(
                m, qc_k, alpha, [0.9 + 0.0j, 0.7j], (fit.c, fit.delta), eps=eps))
    except ParameterError as exc:  # a non-finite margin names its predicate, not the map
        raise ParameterError(f"{m.label}: {exc}") from exc
    for r in out:
        r.predicate = f"{r.predicate}:{tag}"
    return out


def suite_analytic_classical(corpus: dict, config: Config) -> list:
    """Every inequality predicate on the analytic subfamily with the classical
    sharp order 2 and K = 1; these are theorems and must pass."""
    reports = []
    for label in sorted(corpus):
        m = corpus[label]
        if m.is_analytic():
            reports.extend(_inequality_family(m, 2.0, 1.0, config, label))
    return _sorted_reports(reports)


def suite_harmonic_advisory(corpus: dict, config: Config) -> list:
    """The same predicates on genuinely harmonic corpus maps with the
    configured order parameter; margins are advisory because the sharp
    order of the family is unknown.

    Each map's quasiconformality constant is its supremum of dnorm/dmin on
    a fixed grid, never a value looked up by label.  The grid value is only
    a lower bound for the true one, so an explicitly configured K overrides
    it upward.
    """
    reports = []
    for label in sorted(corpus):
        m = corpus[label]
        if not m.is_analytic():
            qc_k = max(qc_constant(m, geometry.disk_grid(24, 32)), config.bigk)
            reports.extend(_inequality_family(m, config.alpha, qc_k, config, label))
    return _sorted_reports(reports)


def suite_geometry(corpus: dict, config: Config) -> list:
    """Stolz-domain angle bound, hyperbolic-metric properties, and
    boundary-distance convergence on the identity; the corpus is unused."""
    reports = []
    n = max(60, round(160 * _scale(config)))
    for r in (0.5, 0.8, 0.95):
        pts = geometry.stolz_sample(r, n, n)
        # |p| > r/4 on the sample, so the bound stays below 3 pi / sqrt(15)
        bound = 4.0 * math.pi * (r - np.abs(pts)) / (r * math.sqrt(15.0))
        reports.append(bounds._report(f"stolz_angle_bound:r={r:g}", 0.0, None,
                                      bound - np.abs(np.angle(pts)), pts, slack=0.0,
                                      notes=f"points={pts.size}"))

    rng = np.random.default_rng(config.seed)
    zs = (np.sqrt(rng.uniform(0, 1, (10_000, 3))) * 0.95
          * np.exp(1j * rng.uniform(0, 2 * math.pi, (10_000, 3))))
    lam12 = geometry.hyp_dist(zs[:, 0], zs[:, 1])
    lam23 = geometry.hyp_dist(zs[:, 1], zs[:, 2])
    lam13 = geometry.hyp_dist(zs[:, 0], zs[:, 2])
    reports.append(bounds._report("hyp_triangle", 0.0, None, lam12 + lam23 - lam13,
                                  zs[:, 1], slack=1e-12))

    a = 0.3 - 0.4j
    moved = geometry.mobius_shift(zs[:, :2], a)
    drift = np.abs(geometry.hyp_dist(moved[:, 0], moved[:, 1]) - lam12)
    reports.append(bounds._report("hyp_mobius_invariance", 0.0, None, 1e-10 - drift,
                                  zs[:, 0], slack=0.0))

    ident = default_corpus()["identity"]
    ws = np.linspace(0.0, 0.9, 19) * np.exp(0.37j)
    dist = geometry.boundary_distance(ident, ws)
    reports.append(bounds._report("boundary_distance_identity", 0.0, None,
                                  1e-3 - np.abs(dist.value - (1.0 - np.abs(ws))), ws,
                                  slack=0.0,
                                  unconverged=None if dist.converged else "boundary distance"))
    return _sorted_reports(reports)


# the input estimate every radial-growth line rests on
_QUAD = "radial-length quadrature"


def suite_radial_growth(corpus: dict, config: Config) -> list:
    """Growth-ratio boundedness for every corpus map, the classical
    starlike/convex radial bounds, and the shear sharpness identity.  A line
    whose radial-length quadrature did not converge fails."""
    reports = []
    for label in sorted(corpus):
        m = corpus[label]
        res = radial.growth_ratio(m, 0.0, config=config)
        ten_med = 10.0 * res.median_ratio
        reports.append(bounds._report(
            f"growth_bounded:{label}", 0.0, None, (ten_med - res.profile.ratio) / ten_med,
            res.profile.r, slack=0.0,
            notes=f"max={res.max_ratio!r} median={res.median_ratio!r}",
            unconverged=None if res.profile.converged else _QUAD))
        if not m.flags & {"starlike", "convex"}:
            continue  # no classical line to write, so no quadrature to spend
        for r in (0.3, 0.6, 0.9):
            chk = radial.classical_bounds(m, 0.0, r)
            for kind, bound in (("starlike", chk.starlike_bound),
                                ("convex", chk.convex_bound)):
                if kind not in m.flags:
                    continue
                reports.append(bounds._report(
                    f"classical_{kind}:{label}", 0.0, None, [bound - chk.ratio], r,
                    bounds._SLACK, unconverged=None if chk.converged else _QUAD))
    koebe = default_corpus()["koebe"]
    for big_k in (2.0, 3.0):
        sheared = shear_qc(CatalogPart("koebe"), big_k)
        for r in (0.5, 0.9):
            q_s = radial.radial_length(sheared, 0.0, r)
            q_h = radial.radial_length(koebe, 0.0, r)
            ell_s, ell_h = q_s.value, q_h.value
            margin = (ell_s - 2.0 / (big_k + 1.0) * ell_h) / max(1.0, ell_s)
            reports.append(bounds._report(
                f"shear_sharpness:K={big_k:g}", 0.0, big_k, [margin], r, bounds._SLACK,
                notes=f"ell_shear={ell_s!r} ell_base={ell_h!r}",
                unconverged=None if q_s.converged and q_h.converged else _QUAD))
    return _sorted_reports(reports)


def suite_none(corpus: dict, config: Config) -> list:
    return []


# name -> (builder, advisory)
SUITES = {
    "analytic-classical": (suite_analytic_classical, False),
    "harmonic-advisory": (suite_harmonic_advisory, True),
    "geometry": (suite_geometry, False),
    "radial-growth": (suite_radial_growth, False),
    "none": (suite_none, False),
}


def run_suite(name: str, corpus: dict, config: Config):
    """Returns (reports, advisory flag); unknown names raise KeyError."""
    builder, advisory = SUITES[name]
    return builder(corpus, config), advisory
