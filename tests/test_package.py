"""The package namespace re-exports exactly the public names of its modules."""

import importlib
import types

import jhl

REEXPORTED = ("basis", "paths", "quadrature", "semigroup", "verify", "weights")
ERRORS = {"ConfigError", "ConvergenceFailure", "NumericFailure"}


def test_exports_are_the_modules_public_names():
    exported = {name for name, value in vars(jhl).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set()
    for module in REEXPORTED:
        declared |= set(importlib.import_module(f"jhl.{module}").__all__)
    assert exported - declared == ERRORS
    assert declared <= exported
