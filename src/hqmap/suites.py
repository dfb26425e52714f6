"""Named check suites over a corpus: bundles of inequality predicates with
deterministic grids, used by the command-line runner and the tests.  Every
suite reads fixed samples, so no suite reads ``config.grid_level``.  The
inequality suites pass no sample: each predicate reads its default, which
``bounds`` builds once at import.

Suite results are lists of CheckReports in canonical order (predicate name,
then witness), so repeated runs with the same manifest serialize to
byte-identical JSON lines.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import bounds, geometry, johndisk, radial
from .corpus import default_corpus
from .maps import CatalogPart, Config, HarmonicMap, ParameterError, qc_constant
from .transforms import shear_qc


def _sorted_reports(reports) -> list:
    return sorted(
        reports,
        key=lambda r: (r.predicate, r.witness.real, r.witness.imag),
    )


def _inequality_family(m: HarmonicMap, alpha: float, qc_k: float, config: Config,
                       tag: str) -> list:
    """The inequality predicates of one map, each on its default sample."""
    eps = config.eps
    fit = johndisk._default_fit(m) if "bounded" in m.flags else None
    try:
        out = [
            bounds.check_two_point_growth(m, alpha, qc_k),
            *bounds.check_derivative_bounds(m, alpha, qc_k),
            bounds.check_weighted_deriv_growth(m, alpha),
            bounds.check_boundary_dist_lower(m, qc_k, eps=eps),
            *bounds.check_harnack_box(m, qc_k, alpha),
        ]
        if fit is not None and fit.hypothesis_holds():
            out.append(bounds.check_arc_image_diameter(m, qc_k, alpha, (fit.c, fit.delta),
                                                       eps=eps))
    except ParameterError as exc:
        # a non-finite margin names its predicate, not the map; a norm
        # error from ``finite_dnorm`` already names the map
        if str(exc).startswith(f"{m.label}: "):
            raise
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
    the boundary-distance line's grid, never a value looked up by label.
    The grid value is only a lower bound for the true one, so an explicitly
    configured K overrides it upward.
    """
    reports = []
    for label in sorted(corpus):
        m = corpus[label]
        if not m.is_analytic():
            qc_k = max(qc_constant(m, bounds._DIST_GRID), config.bigk)
            reports.extend(_inequality_family(m, config.alpha, qc_k, config, label))
    return _sorted_reports(reports)


def suite_geometry(corpus: dict, config: Config) -> list:
    """Stolz-domain angle bound, hyperbolic-metric properties, and
    boundary-distance convergence on the identity; the corpus is unused."""
    reports = []
    for r in (0.5, 0.8, 0.95):
        pts = geometry.stolz_sample(r)
        # |p| > r/4 on the sample, so the bound stays below 3 pi / sqrt(15)
        bound = 4.0 * math.pi * (r - np.abs(pts)) / (r * math.sqrt(15.0))
        reports.append(bounds._report(f"stolz_angle_bound:r={r:g}", 0.0, None,
                                      bound - np.abs(np.angle(pts)), pts, slack=0.0,
                                      notes=f"points={pts.size}"))

    # 10,000 triples of points uniform on the disk of radius 0.95: a
    # square-rooted uniform radius and a uniform angle, each uniform the top
    # 53 bits of a little-endian word from the seeded Mersenne Twister
    words = np.frombuffer(random.Random(config.seed).randbytes(8 * 60_000), dtype="<u8")
    u = ((words >> 11) * 2.0 ** -53).reshape(2, 10_000, 3)
    zs = np.sqrt(u[0]) * 0.95 * np.exp(2j * math.pi * u[1])
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

# the sharp bound on ell(r) / |f(r)| of each flagged class, and the radii
# of the classical and shear lines
_CLASSICAL_BOUNDS = {"starlike": lambda r: 1.0 + r, "convex": lambda r: math.asin(r) / r}
_CLASSICAL_RADII = (0.3, 0.6, 0.9)
_SHEAR_RADII = (0.5, 0.9)


def suite_radial_growth(corpus: dict, config: Config) -> list:
    """Growth-ratio boundedness for every corpus map, the classical
    starlike/convex radial bounds, and the shear sharpness identity.  Every
    radial length is read from one ``radial_profile`` per map and ray, so
    ``config.tol`` governs all of them.  A line whose profile did not
    converge fails."""
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
        kinds = [kind for kind in _CLASSICAL_BOUNDS if kind in m.flags]
        if not kinds:
            continue  # no classical line to write, so no quadrature to spend
        prof = radial.radial_profile(m, 0.0, _CLASSICAL_RADII, config)
        for k, r in enumerate(_CLASSICAL_RADII):
            ratio = prof.ell[k] / prof.abs_f[k]
            for kind in kinds:
                reports.append(bounds._report(
                    f"classical_{kind}:{label}", 0.0, None,
                    [_CLASSICAL_BOUNDS[kind](r) - ratio], r, bounds._SLACK,
                    unconverged=None if prof.converged else _QUAD))
    base = radial.radial_profile(default_corpus()["koebe"], 0.0, _SHEAR_RADII, config)
    for big_k in (2.0, 3.0):
        prof = radial.radial_profile(shear_qc(CatalogPart("koebe"), big_k), 0.0,
                                     _SHEAR_RADII, config)
        for k, r in enumerate(_SHEAR_RADII):
            ell_s, ell_h = float(prof.ell[k]), float(base.ell[k])
            margin = (ell_s - 2.0 / (big_k + 1.0) * ell_h) / max(1.0, ell_s)
            reports.append(bounds._report(
                f"shear_sharpness:K={big_k:g}", 0.0, big_k, [margin], r, bounds._SLACK,
                notes=f"ell_shear={ell_s!r} ell_base={ell_h!r}",
                unconverged=None if prof.converged and base.converged else _QUAD))
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
