"""Family knowledge stays behind the ``Ensemble`` interface, and the
generator behind the ``RngStream`` interface.

Outside ``ensembles.py`` and the engine's algebra, code reaches a law
through ``words_per_draw``, ``entries_per_draw``, ``draws``, ``sample``,
``is_point_mass`` and the moment methods, and never reads which family it
is or that family's parameters.  The functions allowed below are closed
forms of one family by design: their numbers are emitted, or they build the
per-law tables and digests.  A new family must pass without adding to them.

Outside ``ensembles.py``, code draws only through a stream's ``words``
and ``uniform``: it never names numpy's random module, a Philox or a bit
generator, and never reads the stream's private state.

Every module-level function, class or constant is named by other code in
``src/expclt``, the package's ``__init__.py`` aside, or is one of the
declared entry points and reference oracles: no helper or export lives on
for tests alone, and no constant outlives the code that read it.
"""

import ast
from pathlib import Path

import pytest

import expclt
from expclt import RngStream

_SRC = Path(__file__).resolve().parents[1] / "src" / "expclt"

_FAMILY_FIELDS = {"is_finite_support", "family", "low", "high", "support",
                  "probabilities"}

_ALLOWED = {
    "dynamics": {"max_dnk_norm", "precompute_kernel"},
    "experiment": {"config_digest"},
    "covariance": set(),
    "cli": {"main"},
}


def _family_reads(source: str, allowed, fields=_FAMILY_FIELDS) -> list:
    """``(line, function, field)`` for each read of one of ``fields`` outside ``allowed``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr in fields and not allowed.intersection(scope)):
            found.append((node.lineno, ".".join(scope) or "<module>", node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("module", sorted(_ALLOWED))
def test_no_family_branch_outside_the_interface(module):
    source = (_SRC / f"{module}.py").read_text(encoding="utf-8")
    assert _family_reads(source, _ALLOWED[module]) == []


def test_engine_reads_no_law_parameters():
    # the engine's algebra reaches a diagonal law through its kernel and mean()
    source = (_SRC / "engine.py").read_text(encoding="utf-8")
    assert _family_reads(source, set(), {"low", "high"}) == []


def test_guard_sees_reads_in_nested_functions_only_outside_the_allowlist():
    source = ("def run(e):\n"
              "    def inner():\n"
              "        return e.low\n"
              "    return e.is_finite_support\n"
              "def main(e):\n"
              "    e.family = 1\n"
              "    return [e.support for _ in ()]\n")
    assert _family_reads(source, set()) == [
        (3, "run.inner", "low"), (4, "run", "is_finite_support"), (7, "main", "support")]
    assert _family_reads(source, {"run", "main"}) == []
    assert _family_reads(source, set(), {"low", "high"}) == [(3, "run.inner", "low")]


_STREAM_PRIVATE = {a for a in vars(RngStream) if a.startswith("_") and not a.startswith("__")}


def _generator_names(source: str) -> list:
    """``(line, name)`` for each use of numpy's random module, of a name that
    mentions Philox or a bit generator, or of a private ``RngStream`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else ""
            names = [f"{base}.{node.attr}"]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if (name.startswith(("np.random", "numpy.random"))
                    or any("philox" in p.lower() or p == "bit_generator" for p in parts)
                    or parts[-1] in _STREAM_PRIVATE):
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in _SRC.glob("*.py")
                                          if p.name != "ensembles.py"))
def test_no_generator_outside_the_stream(module):
    source = (_SRC / f"{module}.py").read_text(encoding="utf-8")
    assert _generator_names(source) == []


def test_guard_sees_generators_and_private_stream_state():
    assert _STREAM_PRIVATE == {"_drawn"}
    source = ("import numpy.random\n"
              "from numpy import random\n"
              "from .ensembles import _philox_at\n"
              "def f(r, np):\n"
              "    g = np.random.Generator(Philox())\n"
              "    return g.bit_generator, r._drawn, r.uniform(3)\n")
    assert sorted(_generator_names(source)) == [
        (1, "numpy.random"), (2, "numpy.random"), (3, "ensembles._philox_at"),
        (5, "Philox"), (5, "np.random"), (6, "g.bit_generator"), (6, "r._drawn")]


def _defined(node) -> list:
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds, dunders such as ``__all__`` aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and not n.id.startswith("__")]


def _unnamed(sources: dict, exported) -> list:
    """``(module, name)`` for each module-level function, class or constant
    of ``sources`` (module -> source) that no code names outside its own
    definition or assignment, by identifier, attribute or import, unless it
    is ``exported``."""
    def names(node):
        out = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.append(n.id)
            elif isinstance(n, ast.Attribute):
                out.append(n.attr)
            elif isinstance(n, ast.alias):
                out.append(n.name.rsplit(".", 1)[-1])
        return out

    trees = {m: ast.parse(s) for m, s in sources.items()}
    everywhere = [name for tree in trees.values() for name in names(tree)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            found += [(module, name) for name in _defined(node) if name not in exported
                      and everywhere.count(name) == names(node).count(name)]
    return found


# What only callers outside the package read: the config loader and the
# single-replicate and closed-form oracles that check the batched paths.
_ENTRY_POINTS = {"load_config", "sample_xi", "decompose_xi_prime", "xi_prime_telescoping",
                 "doob_decomposition", "martingale_difference", "kernel_consistency",
                 "diff_moment_curve", "normal_cdf"}


def test_every_definition_is_used_or_an_entry_point():
    # __init__.py imports every export, so its reads would hide an unused one
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))
               if p.name != "__init__.py"}
    assert _unnamed(sources, _ENTRY_POINTS) == []


def test_entry_points_are_exported():
    assert _ENTRY_POINTS <= set(expclt.__all__)


def test_guard_sees_definitions_named_only_by_themselves():
    sources = {"a": ("__all__ = ['dead']\n"
                     "def dead():\n"
                     "    return dead()\n"
                     "def used():\n"
                     "    return 1\n"
                     "class Kept:\n"
                     "    pass\n"),
               "b": ("from .a import used\n"
                     "import a\n"
                     "def main():\n"
                     "    return a.Kept, used()\n")}
    assert _unnamed(sources, set()) == [("a", "dead"), ("b", "main")]
    assert _unnamed(sources, {"main"}) == [("a", "dead")]


def test_guard_sees_constants_read_only_by_their_assignment():
    sources = {"a": ("__all__ = ['STEP']\n"
                     "_CHUNK = 65536\n"
                     "STEP: int = 2\n"
                     "_CACHE: dict = {}\n"
                     "_LOW, _HIGH = 0, 1\n"
                     "_N = _N + 1 if False else 3\n"
                     "def f():\n"
                     "    return _CACHE, _LOW\n"),
               "b": ("from .a import f\n"
                     "f()\n")}
    assert _unnamed(sources, set()) == [("a", "_CHUNK"), ("a", "STEP"),
                                        ("a", "_HIGH"), ("a", "_N")]
    assert _unnamed(sources, {"STEP"}) == [("a", "_CHUNK"), ("a", "_HIGH"), ("a", "_N")]
