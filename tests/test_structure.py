"""One derivative path, one sense-preservation rule, a reason for each
export that the package itself never uses, one reader of the grid level
and one of the ring-offset floor.

Outside ``maps``, f_z, f_zb and the derivative norm are read only through
``maps.check_sense_preserving`` and ``maps.finite_dnorm``, which apply the
rule |f_zb| < |f_z| at every point they read, and only that function
raises ``SenseReversalError``.  The scans list, per top-level function,
each derivative call on an analytic part (``.h.d1(...)``, ``.g.d2(...)``,
``.h.derivative(...)``), each ``.dnorm`` read on a pair that the function
did not get from ``check_sense_preserving(...)``, each ``.wirtinger(...)``
call, each ``.jacobian`` read and each ``SenseReversalError(...)``.
"""

import ast
from pathlib import Path

import hqmap

# modules that own the part algebra: ``maps`` evaluates and guards the
# derivatives, ``transforms`` and ``corpus`` build and check parts
_PART_MODULES = {"maps", "transforms", "corpus"}

# (module, top-level function, kind) -> why the direct read is right there
_ALLOWED = {
    ("cli", "_cmd_eval", "dnorm"):
        "prints the raw Wirtinger data of one point, a vanishing norm included",
}

_DERIVATIVES = {"d1", "d2", "derivative"}


def _calls(node, name):
    """Whether ``node`` calls ``name`` or ``<module>.name``."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)


def _checked_pairs(top):
    """Names that ``top`` binds only by ``name = check_sense_preserving(...)``:
    any other binding in ``top``, a parameter included, disqualifies a name."""
    checked = {}
    for node in ast.walk(top):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _calls(node.value, "check_sense_preserving")):
            checked[node.targets[0]] = node.targets[0].id
    rebound = {node.arg for node in ast.walk(top) if isinstance(node, ast.arg)}
    rebound |= {node.id for node in ast.walk(top) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store) and node not in checked}
    return set(checked.values()) - rebound


def _reads(tree):
    """(top-level function, kind, line) of each direct derivative read."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        checked = _checked_pairs(top)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "dnorm"
                    and not _calls(node.value, "check_sense_preserving")
                    and getattr(node.value, "id", None) not in checked):
                yield name, "dnorm", node.lineno
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DERIVATIVES
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr in ("h", "g")):
                yield name, "part derivative", node.lineno


def _package_reads():
    src = Path(hqmap.__file__).parent
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem in _PART_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out += [(path.stem, func, kind, line) for func, kind, line in _reads(tree)]
    return out


def test_the_scan_sees_part_derivative_calls_and_norm_reads():
    tree = ast.parse("def f(m, z):\n    a = m.h.d1(z)\n    b = m.g.derivative(2, z)\n"
                     "    c = m.wirtinger(z).dnorm\n    d = m.h.value(z)\n")
    assert list(_reads(tree)) == [("f", "part derivative", 2), ("f", "part derivative", 3),
                                  ("f", "dnorm", 4)]


def test_the_scan_accepts_a_norm_only_on_a_checked_pair():
    tree = ast.parse("def f(m, z):\n"
                     "    w = check_sense_preserving(m, z)\n"
                     "    return w.dnorm + maps.check_sense_preserving(m, z).dnorm\n"
                     "def bound_elsewhere(m, z):\n"
                     "    return w.dnorm\n"
                     "def parameter(m, w):\n"
                     "    return w.dnorm\n"
                     "def rebound(m, z):\n"
                     "    w = check_sense_preserving(m, z)\n"
                     "    w = m.wirtinger(z)\n"
                     "    return w.dnorm\n"
                     "def loop(m, z):\n"
                     "    w = check_sense_preserving(m, z)\n"
                     "    for w in (m.wirtinger(z),):\n"
                     "        return w.dnorm\n"
                     "def unchecked_call(m, z):\n"
                     "    w = other_check(m, z)\n"
                     "    return w.dnorm\n")
    assert list(_reads(tree)) == [("bound_elsewhere", "dnorm", 5), ("parameter", "dnorm", 7),
                                  ("rebound", "dnorm", 11), ("loop", "dnorm", 15),
                                  ("unchecked_call", "dnorm", 18)]


def test_derivatives_are_read_only_through_wirtinger_and_finite_dnorm():
    reads = _package_reads()
    stray = [r for r in reads if r[:3] not in _ALLOWED]
    assert stray == [], ("read f_z, f_zb through check_sense_preserving and the norm "
                         "through finite_dnorm")
    # an allowance nobody uses any more is dropped, not kept as a loophole
    assert {r[:3] for r in reads} == set(_ALLOWED)


# (module, top-level function, kind) outside ``maps`` -> why the unchecked read is right there
_UNCHECKED = {
    ("cli", "_cmd_eval", "wirtinger"):
        "prints the raw Wirtinger data of one point, a sense-reversing one included",
    ("cli", "_cmd_eval", "jacobian"):
        "prints the raw Wirtinger data of one point, its Jacobian included",
}


def _sense_sites(tree):
    """(top-level function, kind, line) of each ``SenseReversalError(...)``
    construction ("raise"), each ``.wirtinger(...)`` call and each
    ``.jacobian`` read."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "jacobian":
                yield name, "jacobian", node.lineno
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == "SenseReversalError":
                    yield name, "raise", node.lineno
                if called == "wirtinger":
                    yield name, "wirtinger", node.lineno


def _package_sense_sites():
    src = Path(hqmap.__file__).parent
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out += [(path.stem, func, kind, line) for func, kind, line in _sense_sites(tree)]
    return out


def test_the_scan_sees_sense_reversals_and_jacobian_reads():
    tree = ast.parse("def f(m, z):\n    if m.wirtinger(z).jacobian <= 0:\n"
                     "        raise SenseReversalError('x', z)\n"
                     "    raise maps.SenseReversalError('y', z)\n")
    assert sorted(_sense_sites(tree)) == [("f", "jacobian", 2), ("f", "raise", 3),
                                          ("f", "raise", 4), ("f", "wirtinger", 2)]


def test_one_sense_preservation_rule():
    sites = _package_sense_sites()
    raises = [r for r in sites if r[2] == "raise"]
    assert [r[:2] for r in raises] == [("maps", "check_sense_preserving")], \
        "raise SenseReversalError only in maps.check_sense_preserving"
    # the Jacobian underflows where |f_zb| < |f_z| holds, so no rule reads
    # it; an allowance nobody uses any more is dropped
    unchecked = {r[:3] for r in sites if r[2] != "raise" and r[0] != "maps"}
    assert unchecked == set(_UNCHECKED)


# exported names that no other top-level definition of the package uses ->
# why each stays
_LIBRARY_ONLY = {
    "preschwarzian_sup": "test_c07 checks its boundary limits 2 (identity) and 4 (Koebe)",
    "poisson_functional": "the single-point reference that poisson_scan is tested against",
    "save_corpus": "writes a corpus file that --corpus reads back",
    "rotate": "keeps catalog and series maps serializable; the rotated scorecard maps",
    "affine": "builds in-memory maps; the sharp direction of the shear lines",
    "diam_ratio_check": "linear measure distortion, waiting for the john-image suite",
    "holder_check": "Lipschitz continuity, waiting for the john-image suite",
    "pommerenke_bracket": "Pommerenke interior domains, waiting for the john-image suite",
}


def _unreferenced(init_tree, module_trees):
    """Names ``init_tree`` imports that no top-level statement of
    ``module_trees`` uses as a ``Name`` or an ``Attribute``, apart from the
    statement that defines the name.  Imports and docstrings do not count."""
    exported = {alias.asname or alias.name for node in init_tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for tree in module_trees:
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in exported and name != getattr(top, "name", None):
                    used.add(name)
    return exported - used


def test_the_scan_sees_exports_nothing_uses():
    init = ast.parse("from .a import f, g, h, k, C\n")
    mod = ast.parse('def f():\n    """g"""\n    return f()\n'
                    "def u(m):\n    return m.h + C\n"
                    "from .b import k\n")
    assert _unreferenced(init, [mod]) == {"f", "g", "k"}


def test_every_export_is_used_or_has_a_reason():
    src = Path(hqmap.__file__).parent
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(src.glob("*.py")) if path.stem != "__init__"]
    unused = _unreferenced(init, trees)
    assert sorted(unused - set(_LIBRARY_ONLY)) == [], \
        "call each export from the package, or give its reason in _LIBRARY_ONLY"
    # an allowance nobody needs any more is dropped, not kept as a loophole
    assert sorted(set(_LIBRARY_ONLY) - unused) == []


def _loads(tree, name):
    """(top-level definition, line) of each read of ``name``, as a bare name
    or as an attribute (``config.grid_level``, ``maps.EPS_MIN``)."""
    for top in tree.body:
        top_name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (getattr(node, "attr", getattr(node, "id", None)) == name
                    and isinstance(getattr(node, "ctx", None), ast.Load)):
                yield top_name, node.lineno


def test_the_scan_sees_level_reads():
    tree = ast.parse("def f(config):\n    return config.grid_level\n"
                     "class C:\n    def g(self):\n        if not self.grid_level:\n"
                     "            return replace(self, grid_level=1)\n"
                     "def h(c):\n    c.grid_level = 2\n"
                     "grid_level = 3\n"
                     "def k():\n    return grid_level\n")
    assert list(_loads(tree, "grid_level")) == [("f", 2), ("C", 5), ("k", 11)]


def _package_loads(name):
    src = Path(hqmap.__file__).parent
    return {(path.stem, func) for path in sorted(src.glob("*.py"))
            for func, _ in _loads(ast.parse(path.read_text(encoding="utf-8")), name)}


def test_the_grid_level_has_one_reader():
    # the level picks the Poisson eps ladder and nothing else; ``Config``
    # reads it only to range-check it
    assert _package_loads("grid_level") == {("cli", "_eps_levels"), ("maps", "Config")}


def test_the_ring_offset_floor_has_one_reader():
    # every ring offset (``Config.eps``, ``boundary_distance``, the Poisson
    # functional and scans) is range-checked by ``maps.check_eps`` alone
    assert _package_loads("EPS_MIN") == {("maps", "check_eps")}
