"""Static checks over the package source."""

import ast
import pathlib
import subprocess
import sys

import pytest

import blockboot
from child_env import child_env

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "blockboot"
TESTS = pathlib.Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

#: Marks the line above an import that exists only for perfbench/tracing.py to wrap.
TRACED = "# Traced by perfbench"
TRACED_IMPORTS = {
    ("harness", "counts_from_indices"),
    ("harness", "empirical_quantile"),
    ("harness", "cvm_bootstrap_evaluator"),
    ("harness", "cvm_statistic"),
    ("harness", "v_statistic"),
    ("harness", "vstat_bootstrap_evaluator"),
    ("vmstat", "block_counts_per_replicate"),
    ("vmstat", "empirical_quantile"),
}


def unused_imports(source: str) -> tuple[list[str], list[str]]:
    """``(unused, traced)``: names imported and never read, outside and inside traced imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused, traced = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = node.lineno > 1 and lines[node.lineno - 2].startswith(TRACED)
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                (traced if marked else unused).append(name)
    return unused, traced


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\n# Traced by perfbench/tracing.py.\nfrom x import y\nsys.exit()\n"
    assert unused_imports(source) == (["os"], ["y"])


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_read(path):
    unused, _ = unused_imports(path.read_text())
    assert unused == []


def test_public_names_are_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(blockboot.__all__) == sorted(["__version__", *imported])


def test_only_the_traced_imports_go_unread():
    traced = {(path.stem, name) for path in MODULES for name in unused_imports(path.read_text())[1]}
    assert traced == TRACED_IMPORTS


def einsum_calls(source: str, allowed: set[str] = frozenset()) -> list[int]:
    """Lines of the ``einsum`` calls outside the top-level functions in ``allowed``."""
    return [call.lineno for node in ast.parse(source).body
            if getattr(node, "name", None) not in allowed for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "einsum"]


def test_checker_flags_an_einsum_call():
    source = ("def f(v):\n    return np.einsum('i,i', v, v)\n"
              "class C:\n    def g(self, v):\n        return v @ np.einsum('i', v)\n")
    assert einsum_calls(source) == [2, 5]
    assert einsum_calls(source, {"f"}) == [5]


def test_count_products_go_through_one_helper():
    # Count rows times a float matrix go through bootstrap._count_product,
    # whose exact slices keep BLAS deterministic; the max-profile Gram's
    # einsum is a different product.
    assert einsum_calls((PACKAGE / "bootstrap.py").read_text()) == []
    assert einsum_calls((PACKAGE / "vmstat.py").read_text(), {"_max_block_gram"}) == []


def json_dump_calls(source: str) -> list[tuple[int, bool]]:
    """``(line, strict)`` of each ``json.dump``/``json.dumps`` call; strict: ``allow_nan=False``."""
    return sorted((call.lineno, any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                                    and kw.value.value is False for kw in call.keywords))
                  for call in ast.walk(ast.parse(source))
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                  and call.func.attr in ("dump", "dumps")
                  and isinstance(call.func.value, ast.Name) and call.func.value.id == "json")


def test_checker_flags_json_dump_calls():
    source = ("import json\ndef f(x, fh):\n    json.dump(x, fh)\n"
              "    return json.dumps(x, indent=2, allow_nan=False)\n"
              "text = json.dumps({}, allow_nan=True) + pickle.dumps(0)\n")
    assert json_dump_calls(source) == [(3, False), (4, True), (5, False)]


def test_reports_are_serialized_at_one_strict_call():
    # io.json_text is the one place a report becomes JSON, and it refuses NaN and Infinity.
    calls = {path.stem: json_dump_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert [(stem, strict) for stem, found in calls.items() for _, strict in found] == [("io", True)]


def imports_by_function(source: str, package: str) -> list[tuple[str | None, str]]:
    """Each import from ``package`` in ``source``, written as ``import x`` or
    ``from x import y``, with the name of the innermost function whose body
    holds it; None for one that runs when the module is imported."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((owner, f"import {alias.name}") for alias in child.names
                             if alias.name.split(".")[0] == package)
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == package:
                found.extend((owner, f"from {child.module} import {alias.name}") for alias in child.names)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), None)
    return found


def imports_of(source: str, package: str) -> list[str]:
    """Each import from ``package`` in ``source``."""
    return [text for _, text in imports_by_function(source, package)]


def test_checker_lists_scipy_imports():
    source = ("import scipy.stats\nimport numpy, scipy as sp\nfrom scipy import special, signal\n"
              "def f():\n    from scipy.signal import lfilter\n")
    assert imports_of(source, "scipy") == ["import scipy.stats", "import scipy", "from scipy import special",
                                           "from scipy import signal", "from scipy.signal import lfilter"]


CHECKER_SOURCE = ("try:\n    import scipy.stats\nexcept ImportError:\n    pass\n"
                  "class C:\n    from scipy import special\n"
                  "    def f(self):\n        from scipy import signal\n"
                  "async def g():\n    import scipy.fft\n"
                  "def h():\n    def inner():\n        from scipy import linalg\n"
                  "    from scipy import special\n")


def test_checker_lists_module_level_scipy_imports():
    found = imports_by_function(CHECKER_SOURCE, "scipy")
    assert [text for owner, text in found if owner is None] == ["import scipy.stats",
                                                                "from scipy import special"]


def test_checker_names_the_function_of_each_scipy_import():
    assert imports_by_function(CHECKER_SOURCE, "scipy") == [
        (None, "import scipy.stats"), (None, "from scipy import special"),
        ("f", "from scipy import signal"), ("g", "import scipy.fft"),
        ("inner", "from scipy import linalg"), ("h", "from scipy import special")]


#: The functions that evaluate a special function, each importing
#: ``scipy.special`` in its body: the Student-t law alone, since the
#: chi-square reference is Cephes ``erf(sqrt(x/2))`` written out over the
#: normal CDF's pieces (``dists.chdtr1``).
SCIPY_SPECIAL_OWNERS = {"dists": "student_t"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_scipy_special_is_the_only_scipy_import(path):
    # The null laws, the chi-square reference and the AR(1) recursion are
    # written out over numpy, and the Student-t law over scipy.special;
    # scipy.stats and scipy.signal load ~460 modules the package does not
    # need.  scipy.special (66 modules) is imported only inside the function
    # that evaluates it, so neither importing the package, nor building a
    # normal or uniform law, nor the chi-square reference loads any scipy module.
    owner = SCIPY_SPECIAL_OWNERS.get(path.stem)
    expected = [] if owner is None else [(owner, "from scipy import special")]
    assert imports_by_function(path.read_text(), "scipy") == expected


def test_checker_lists_blockboot_imports():
    source = ("import numpy\nimport blockboot as bb\nfrom blockboot.vmstat import Kernel\n"
              "def f():\n    from blockboot import v_statistic\n")
    assert imports_of(source, "blockboot") == [
        "import blockboot", "from blockboot.vmstat import Kernel", "from blockboot import v_statistic"]


def test_oracles_import_nothing_from_the_package():
    # The test references are independent of the code paths they check.
    assert imports_of(ORACLES.read_text(), "blockboot") == []


def test_importing_the_entry_points_loads_no_scipy():
    # scipy.special (66 modules) is imported by the laws that evaluate it.
    code = ("import sys, blockboot, blockboot.cli, blockboot.harness\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
