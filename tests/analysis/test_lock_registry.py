"""Every rank in ``LOCK_ORDER`` belongs to exactly one lock under ``src/``.

R001 checks the other direction (every lock has a rank).  This census makes
a rank go with its lock: once the lock is deleted, its rank fails here
instead of lingering in the registry.  A library lock is created by one
``make_lock`` / ``make_rlock`` / ``make_condition`` call naming it.  The
instrumentation's own two locks (``LockOrderGraph`` and ``LeaseTracker``)
cannot come from those factories, which record into them, so a raw
``threading.Lock()`` assigned to the registered ``module.Class.attr`` counts
for them.
"""

import ast
from collections import Counter
from pathlib import Path

import repro
from repro.analysis.locks import LOCK_ORDER

SRC = Path(repro.__file__).resolve().parent
FACTORIES = {"make_lock", "make_rlock", "make_condition"}
RAW = {"Lock", "RLock", "Condition"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _called(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _created_locks():
    """Every lock name a ``src/`` file creates, one entry per creation."""
    created = Counter()
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                if _called(node.value) not in RAW:
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        created[f"{module}.{cls.name}.{target.attr}"] += 1
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _called(node) in FACTORIES
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                created[node.args[0].value] += 1
    return created


def test_every_rank_is_created_by_exactly_one_lock():
    created = _created_locks()
    counts = {name: created[name] for name in LOCK_ORDER}
    assert all(count == 1 for count in counts.values()), counts


def test_every_factory_lock_has_a_rank():
    created = _created_locks()
    assert set(created) <= set(LOCK_ORDER), sorted(set(created) - set(LOCK_ORDER))


def test_the_registry_holds_ten_ranks():
    assert len(LOCK_ORDER) == 10
