"""The benchmark's tracer still finds every layer it wraps in the package.

``perfbench/tracing.py`` patches functions and methods by name; a rename
or deletion in the package would break ``perfbench/run.py --trace 1``
without failing any other test.
"""

import importlib
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
