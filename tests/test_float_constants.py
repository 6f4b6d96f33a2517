"""Every module-level float constant of the package has a mutant in
tests/mutants.py, or a reason in NO_MUTANT why it needs none.

A mutant covers a constant when it edits the constant's assignment or
deletes a use of it, in the constant's own module.  So a new tolerance or
constant fails this test until its mutant or its reason is written.
"""

import ast
import importlib
import re
from pathlib import Path

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wwmtc"

# module.NAME -> why no mutant is needed
NO_MUTANT = {
    "beam._SQRT2": "math.sqrt(2.0): correctly rounded, nothing to choose",
    "beam.P_STRAIGHT": "1 / sqrt(2), the straight strip's p: the model's, nothing to choose",
    "beam.P_MAX": "elliptic.MODULUS_MAX under the model's name",
    "beam._T_STRAIGHT": "-log1p(-P_STRAIGHT), derived from P_STRAIGHT",
    "elliptic.MODULUS_MAX": "1 - 1e-9, the documented end of the public API's domain",
    "elliptic.HALF_PI": "math.pi / 2.0: correctly rounded, nothing to choose",
}


def float_constants() -> list[str]:
    """module.NAME of each name that a module of the package binds at its
    top level to a float."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module("wwmtc" if path.stem == "__init__" else
                                         f"wwmtc.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target] if isinstance(node, ast.AnnAssign) else []
            for name in (n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)):
                if type(getattr(module, name)) is float:
                    found.append(f"{module.__name__.removeprefix('wwmtc.')}.{name}")
    return found


def has_mutant(constant: str) -> bool:
    module, name = constant.split(".")
    word = re.compile(rf"\b{name}\b")
    return any(m.path == f"src/wwmtc/{module}.py"
               and (re.search(rf"^\s*{name} =", m.old, re.M)
                    or len(word.findall(m.old)) > len(word.findall(m.new)))
               for m in MUTANTS)


def test_every_float_constant_has_a_mutant_or_a_reason():
    constants = float_constants()
    assert "actuators._VP_TOL" in constants and "svgplot._MARGIN_BOTTOM" in constants
    assert [c for c in constants if not has_mutant(c) and c not in NO_MUTANT] == []
    # a reason for a constant that has gone, or that has a mutant, is stale
    assert [c for c in NO_MUTANT if c not in constants or has_mutant(c)] == []
