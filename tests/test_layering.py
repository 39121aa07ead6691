"""Family knowledge stays behind the ``Ensemble`` interface.

Outside ``ensembles.py`` and the engine's algebra, code reaches a law
through ``uniforms_per_draw``, ``from_uniforms``, ``sample``,
``is_point_mass`` and the moment methods, and never reads which family it
is or that family's parameters.  The functions allowed below are closed
forms of one family by design: their numbers are emitted, or they build the
per-law tables and digests.  A new family must pass without adding to them.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "expclt"

_FAMILY_FIELDS = {"is_finite_support", "family", "low", "high", "support",
                  "probabilities"}

_ALLOWED = {
    "dynamics": {"max_dnk_norm", "precompute_kernel"},
    "experiment": {"_structure_check", "config_digest"},
    "covariance": set(),
    "cli": {"main"},
}


def _family_reads(source: str, allowed) -> list:
    """``(line, function, field)`` for each family field read outside ``allowed``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr in _FAMILY_FIELDS and not allowed.intersection(scope)):
            found.append((node.lineno, ".".join(scope) or "<module>", node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("module", sorted(_ALLOWED))
def test_no_family_branch_outside_the_interface(module):
    source = (_SRC / f"{module}.py").read_text(encoding="utf-8")
    assert _family_reads(source, _ALLOWED[module]) == []


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
