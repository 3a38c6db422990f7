"""Checks on the package as tools see it: the names the benchmark's tracer
wraps, what importing the CLI costs, and the exported names.

``perfbench/tracing.py`` patches functions and methods by name; a rename
or deletion in the package would break ``perfbench/run.py --trace 1``
without failing any other test.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402


def test_traced_names_resolve():
    def module(name):
        return importlib.import_module(f"torus_hartree.{name}")

    missing = [f"{mod}.{attr}" for mod, attr in tracing.FUNCTIONS.values()
               if not callable(getattr(module(mod), attr, None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr in tracing.METHODS.values()
                if not callable(vars(getattr(module(mod), cls, object)).get(attr))]
    if not isinstance(getattr(module("evolution"), "_Kernel", None), type):
        missing.append("evolution._Kernel")
    assert missing == []


def test_cli_import_loads_no_concurrent_futures():
    # concurrent.futures and its process module cost every CLI call ~9 ms to
    # import, and multiprocessing 6-10 ms; only a scan with workers > 1 needs
    # them.  numpy.polynomial costs 2.5-4 ms, and only picard_solve needs it.
    src = str(ROOT / "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys, torus_hartree.cli; print([m in sys.modules for m in "
            "('concurrent.futures', 'multiprocessing', 'numpy.polynomial')])")
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == "[False, False, False]\n"


# public helpers deleted because no program path, demo or benchmark called them
DELETED = {"energy", "to_spectral", "lifespan_guard_value"}


def test_package_exports_match_module_all():
    package = importlib.import_module("torus_hartree")
    tree = ast.parse(Path(package.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names]
    assert imported
    unlisted = [f"{mod}.{name}" for mod, name in imported
                if name not in importlib.import_module(f"torus_hartree.{mod}").__all__]
    assert unlisted == []
    modules = [importlib.import_module(f"torus_hartree.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)]
    listed = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert [f"{m.__name__}.{name}" for m, name in listed if not hasattr(m, name)] == []
    assert DELETED.isdisjoint(name for _, name in imported + listed)
    assert DELETED.isdisjoint(vars(package))
    bound = importlib.import_module("torus_hartree.diagnostics").quasi_vacuum_energy_bound
    assert list(inspect.signature(bound).parameters) == ["inputs"]
