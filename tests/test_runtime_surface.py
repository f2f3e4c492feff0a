"""The runtime surface: every top-level public name in ``src/fejercert`` is
used by the package itself, except a pinned set of paper closed forms and
reference views that the acceptance criteria check directly.  A name that
only tests call belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fejercert"

UNCALLED_ALLOWED = {
    # paper closed forms
    "averaged_block_kernel",
    "descent_step",
    "fejer_coefficients",
    "gamma_safe",
    "is_primitive",
    "lipschitz_envelope_bound",
    "main_lobe_constant",
    "offpeak_bound",
    "offpeak_bound_loose",
    "order_reduction",
    "overlap_feasibility_floor",
    "second_eigenvalue",
    # access to the shipped schemas
    "load_schema",
    # the matrix view of the runtime mixer coefficients
    "block_unitary",
}


def _modules():
    # __init__ only re-exports, so its imports are not uses
    return [ast.parse(path.read_text("utf-8")) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def _used_names(tree):
    """Names and attributes referenced in each top-level statement, outside
    the definition that binds them."""
    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name is not None and name != own:
                yield name


def test_uncalled_public_names_are_pinned():
    trees = _modules()
    defined = {name for tree in trees for name in _public_names(tree)}
    used = {name for tree in trees for name in _used_names(tree)}
    assert defined - used == UNCALLED_ALLOWED
