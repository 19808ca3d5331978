"""Every exported name has a caller outside ``tests/``.

A caller census of the public surface, kept as a test so the surface cannot
quietly grow back.  For each name in the ``__all__`` of every package under
``src/repro``, some module under ``src/``, ``examples/`` or ``benchmarks/``
other than the exporting package's own ``__init__`` must use it, and a mere
re-export (an import inside any ``__init__.py``) does not count.  A name
without such a caller is deleted, or stays with its reason in
:data:`KEPT_WITHOUT_CALLER`.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks")
#: Every package under ``src/repro``.
PACKAGES = tuple(
    ".".join(init.parent.relative_to(ROOT / "src").parts)
    for init in sorted((ROOT / "src" / "repro").rglob("__init__.py"))
)

#: Exported names no code outside tests calls, and why each one stays.
KEPT_WITHOUT_CALLER = {
    ("repro", "mmap_alloc"): (
        "the paper's mmapAlloc (Table 1): MmapMatrix(mmap_alloc(path, shape, mode='r')) "
        "maps a headerless file of known shape"
    ),
    ("repro.core", "mmap_alloc"): (
        "the paper's mmapAlloc (Table 1): MmapMatrix(mmap_alloc(path, shape, mode='r')) "
        "maps a headerless file of known shape"
    ),
    ("repro", "profiling"): (
        "the /proc/self/io + rusage sampler that measured (cold-cache) runs read "
        "device bytes and major faults with"
    ),
    ("repro.ml.optim", "QuadraticObjective"): (
        "test problem: a convex quadratic with a known minimiser for the optimiser tests"
    ),
    ("repro.ml.optim", "RosenbrockObjective"): (
        "test problem: a curved landscape for the line search and L-BFGS tests"
    ),
    ("repro.ml.optim", "FunctionObjective"): (
        "the fake objective tests substitute for a data-dependent one"
    ),
    ("repro.data", "make_blobs"): (
        "test-data generator; moving it into tests/ would not make the code smaller"
    ),
    ("repro.data", "make_low_rank_matrix"): (
        "test-data generator; moving it into tests/ would not make the code smaller"
    ),
    ("repro.analysis", "ThreadLeakDetector"): (
        "the suite-wide thread-leak guard tests/conftest.py wraps every test in; "
        "it belongs beside LEASES, the lease-leak tracker the library feeds"
    ),
    ("repro.profiling", "ResourceMonitor"): (
        "the before/after rusage + /proc/self/io sampler the planned cold-cache "
        "scan workload checks its page-cache eviction with"
    ),
}


def _module_file(module: str) -> Path:
    path = ROOT / "src" / Path(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _scan():
    """Per file: the names it uses, and the ``repro`` modules it imports."""
    files = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            reexports = path.name == "__init__.py"
            names, modules = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Import):
                    modules.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module and not reexports:
                    modules.add(node.module)
                    names.update(alias.name for alias in node.names)
                    modules.update(f"{node.module}.{alias.name}" for alias in node.names)
            files[path] = (names, modules)
    return files


def _defining_module(package: str, name: str) -> str:
    """The module the package's ``__init__`` takes ``name`` from."""
    tree = ast.parse(_module_file(package).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    if node.module == package:  # ``from repro import api``
                        return f"{package}.{name}"
                    return node.module
    return package  # defined in the ``__init__`` itself


FILES = _scan()
EXPORTS = [
    (package, name)
    for package in PACKAGES
    for name in importlib.import_module(package).__all__
]


def callers(package: str, name: str) -> list:
    """Files outside tests that use ``package.name``."""
    source = _defining_module(package, name)
    is_module = isinstance(getattr(importlib.import_module(package), name), types.ModuleType)
    found = []
    for path, (names, modules) in FILES.items():
        if path == _module_file(package):
            continue
        if is_module:
            used = any(m == source or m.startswith(source + ".") for m in modules)
        else:
            used = name in names
        if used:
            found.append(path.relative_to(ROOT))
    return found


def test_census_scans_the_tree():
    assert len(FILES) > 100
    assert len(EXPORTS) > 50
    assert len(PACKAGES) >= 16 and {"repro", "repro.ml.optim", "repro.vmem"} <= set(PACKAGES)


@pytest.mark.parametrize("package, name", sorted(KEPT_WITHOUT_CALLER))
def test_allowlisted_name_has_a_reason(package, name):
    assert len(KEPT_WITHOUT_CALLER[package, name].split()) >= 5


@pytest.mark.parametrize("package, name", EXPORTS, ids=lambda value: value)
def test_exported_name_has_a_caller(package, name):
    if (package, name) in KEPT_WITHOUT_CALLER:
        assert not callers(package, name), "has a caller now: drop it from the allowlist"
        return
    assert callers(package, name), (
        f"{package}.{name} is reached only by tests and re-exports: delete it, "
        f"or add it to KEPT_WITHOUT_CALLER with the reason it stays"
    )


def test_allowlist_names_are_exported():
    assert set(KEPT_WITHOUT_CALLER) <= set(EXPORTS)
