"""Package-internal imports run one way, from each module to those below it.

Each module of ``src/starkladder`` may import only modules earlier in
``LAYERS`` (and ``__version__`` from the package), so no import cycle can
form and no module needs a ``TYPE_CHECKING`` block to name a type from a
layer above.  The package ``__init__`` re-exports every layer and is exempt.
No module names an LU kernel or the SVD condition number either, each
pair fact has one owning module, one iterator cuts every eigenvector
matrix into column blocks and one helper maps over them, only ``embed``
and ``restrict`` weigh a pair basis's amplitudes, only ``spectra`` reads
how a spectrum stores its columns, and one product multiplies by a
chain's bonds.
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


def _named(tree: ast.AST) -> set:
    """Imported (alias), bare (Name) and dotted (Attribute) names in ``tree``."""
    return {
        getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        for node in ast.walk(tree)
    }


def test_pair_facts_have_one_owner():
    # pair bases are recognized from their labels in lattices alone, and
    # kappa(V x V) = kappa(V)^2 is written in dynamics alone; a pair
    # lattice's chain is the 1/i dimer in lattices alone (LatticeSpec.chain,
    # held by PairMatrix), so the Kronecker route names no spec
    trees = _trees()
    assert {name for name, tree in trees.items() if "isqrt" in _named(tree)} == {"lattices"}
    assert {name for name, tree in trees.items() if "DIMER_1I" in _named(tree)} == {"lattices"}
    assert not _named(trees["spectra"]) & {"LatticeSpec", "LatticeKind"}
    powers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and getattr(node.left, "attr", None) == "condition"
    }
    assert powers == {"dynamics"}


def test_eigensolver_routes_by_type_alone():
    # eigendecompose takes a chain's bands and a pair lattice's chain from
    # the matrix types; it reads no structure back out of labels or entries
    named = _named(_trees()["spectra"])
    assert not named & {"basis_labels", "pair_basis_of", "pair_chain_of", "_tridiagonal_bands"}


def test_only_the_block_iterator_reads_the_block_width():
    # every pass over an eigenvector matrix takes its columns from
    # spectra._column_blocks, so no module writes a column loop of its own
    def reads(tree: ast.AST) -> int:
        return sum(
            isinstance(getattr(node, "ctx", None), ast.Load)
            and getattr(node, "id", getattr(node, "attr", None)) == "_BLOCK"
            for node in ast.walk(tree)
        )

    trees = _trees()
    iterator = next(
        node for node in ast.walk(trees["spectra"])
        if isinstance(node, ast.FunctionDef) and node.name == "_column_blocks"
    )
    assert sum(map(reads, trees.values())) == reads(iterator) > 0


def test_one_iterator_cuts_the_columns():
    # the column passes map over the blocks through spectra._by_blocks; only
    # the two routes that fill or append column storage block by block loop
    # over spectra._column_blocks themselves
    callers = {
        function.name
        for tree in _trees().values()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_column_blocks"
    }
    assert callers == {"_by_blocks", "_tridiagonal_spectrum", "_kronecker_spectrum"}


def test_only_embed_and_restrict_read_the_pair_weights():
    # a pair basis's layout maps amplitudes onto the amplitude matrix with
    # its parity and weights in PairBasis.embed and restrict alone; every
    # other reader takes only the (x, y) labels of the layout
    readers = {
        function.name
        for tree in _trees().values()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Assign) and getattr(node.value, "attr", None) == "layout"
        and {"parity", "weight"} & {getattr(n, "id", None) for n in ast.walk(node.targets[0])}
    }
    assert readers == {"embed", "restrict"}


# how ComplexSpectrum stores V: its row windows, the column and partner sign
# of each level, the gauge, and what is derived from them
_SPECTRUM_STORAGE = {"windows", "source", "mirror", "gauge", "_partners", "_starts"}


def test_only_spectra_reads_the_spectrum_layout():
    # other modules reach V through eigenvectors, per_column, the products
    # and right_eigenvectors, so the layout can change in spectra alone
    readers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if getattr(node, "attr", None) in _SPECTRUM_STORAGE
        or isinstance(node, ast.keyword) and node.arg in _SPECTRUM_STORAGE
    }
    assert readers == {"spectra"}


def test_one_product_multiplies_by_the_bonds():
    # ChainMatrix.__matmul__ writes the band product and every residual
    # ||H v - E v|| takes it through h @ v (spectra.matrix_residuals), so no
    # function multiplies by a chain's bonds ``off`` of its own
    def bonds(node: ast.AST) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return getattr(node, "id", getattr(node, "attr", None)) == "off"

    writers = {
        (name, function.name)
        for name, tree in _trees().items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and (bonds(node.left) or bonds(node.right))
    }
    assert writers == {("lattices", "__matmul__")}


def test_pair_certificates_do_not_run_the_engine():
    # pairmap certifies evolve's pair output by expm, so it may not name
    # evolve: no certificate shares code with what it certifies
    assert "evolve" not in _named(_trees()["pairmap"])


# every eigenbasis is inverted by its transpose, ``D^-1 V^T``, and kappa_2 is
# a power-iteration estimate, never an SVD
def _banned(node: ast.AST) -> str | None:
    """The kernel an import or a (dotted) name refers to, if it is banned."""
    if isinstance(node, ast.alias):
        named = node.name
    elif isinstance(node, (ast.Name, ast.Attribute)):
        named = ast.unparse(node)
    else:
        return None
    if named.rsplit(".", 1)[-1] in ("lu_factor", "lu_solve") or named.endswith("linalg.cond"):
        return named
    return None


def test_source_names_no_lu_or_svd_condition():
    found = [
        f"{name}: {banned}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if (banned := _banned(node)) is not None
    ]
    assert found == []


def test_only_the_command_line_sets_collector_policy():
    # the library leaves the garbage collector as its user configured it;
    # only the CLI process, which owns its interpreter, freezes the heap
    importers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
    }
    assert importers == {"cli"}
