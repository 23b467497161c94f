"""Repository hygiene checks that read the sources instead of running them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "signrec"

# Acceptance criterion 1 checks the paper's loss formulas through these
# scalar forms, one record at a time. The program computes the same losses
# batched inside loss_and_grads and _fit_head, so nothing in it calls them.
FORMULA_REFERENCES = {"cross_entropy", "cosine_loss", "combined_loss"}


def _referenced_names() -> set[str]:
    """Every name loaded as a variable or attribute in src/, perfbench/ and demos/."""
    names = set()
    for directory in ("src", "perfbench", "demos"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    # An import alone does not count: the name must be used somewhere.
    used = _referenced_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in used
                and node.name not in FORMULA_REFERENCES
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"public functions nothing calls: {unused}"
