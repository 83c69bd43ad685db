"""Package-internal imports run one way, from each module to those below it.

Each module of ``src/starkladder`` may import only modules earlier in
``LAYERS`` (and ``__version__`` from the package), so no import cycle can
form and no module needs a ``TYPE_CHECKING`` block to name a type from a
layer above.  The package ``__init__`` re-exports every layer and is exempt.
"""

import ast
from pathlib import Path

import starkladder

PACKAGE = Path(starkladder.__file__).resolve().parent
LAYERS = ("lattices", "spectra", "dynamics", "pairmap", "experiments", "cli")


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _internal_imports(tree: ast.Module):
    """Package modules a module imports (``__version__`` is not one)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                module = node.module or ""
            else:
                module = ".".join(filter(None, ["starkladder", node.module]))
            if module == "starkladder":
                yield from (a.name for a in node.names if a.name != "__version__")
            elif module.startswith("starkladder."):
                yield module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "starkladder":
                    yield alias.name.split(".")[1] if "." in alias.name else "starkladder"


def test_internal_imports_follow_the_layers():
    trees = _trees()
    assert sorted(trees) == sorted(("__init__", *LAYERS))
    wrong = [
        f"{name} imports {imported}"
        for rank, name in enumerate(LAYERS)
        for imported in _internal_imports(trees[name])
        if imported not in LAYERS[:rank]
    ]
    assert wrong == []


def test_no_module_has_a_type_checking_block():
    found = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) == "TYPE_CHECKING"
    ]
    assert found == []
