"""chowbg: exact additive tables and ring presentations for Chow rings of
classifying spaces of a fixed catalog of algebraic groups, over a
parameterized base field.

``chowbg.graded`` and ``chowbg.cyclic``, the labelled reference API that
the tests check the compute path against, are registered without running
their code; PEP 562 hooks in their own namespaces run it on first use.
No CLI call uses either, so a CLI process never compiles or runs them."""

import sys
from importlib.util import find_spec, module_from_spec
from threading import RLock
from types import ModuleType

from .errors import FieldParseError, GradingError, GroupParseError, UnsupportedError
from .fields import (
    FieldDescriptor,
    GaloisFixedSpec,
    apply_cyclotomic_invariants,
    contains_mu,
    cyclotomic_order,
    galois_fixed_exponent,
    parse_field,
)
from .groups import GroupExpr, format_group, generator_bound, parse_group_expr, sylow_group
from .models import (
    chow_integral_symmetric,
    chow_model,
    chow_model_localized,
    chow_model_mod_p,
    chow_symmetric_local,
    chow_symmetric_sylow_bound,
    chow_wreath,
    localize_table,
    mod_p_table,
)
from .presentations import RingPresentation, additive_table_from_presentation, catalog_presentation
from .tables import ChowTable, DegreeRow, Localization

# one lock for both, re-entrant: running cyclic loads graded
_first_use_lock = RLock()


def _register(name: str) -> ModuleType:
    """Register the submodule with hooks that run its code, under the lock,
    at the first read of a name it has not bound or at ``dir()``.  The hooks
    are deleted only once the code has run to its end, so a read from
    another thread meanwhile waits on the lock."""
    module = module_from_spec(find_spec(f"{__name__}.{name}"))
    namespace = vars(module)

    def run():
        with _first_use_lock:
            if "__getattr__" in namespace:
                module.__spec__.loader.exec_module(module)
                del namespace["__getattr__"], namespace["__dir__"]

    def __getattr__(attr):
        run()
        return getattr(module, attr)

    def __dir__():
        run()
        return dir(module)

    namespace.update(__getattr__=__getattr__, __dir__=__dir__)
    sys.modules[module.__name__] = module
    return module


cyclic = _register("cyclic")
graded = _register("graded")

__all__ = [
    "ChowTable", "DegreeRow", "FieldDescriptor", "FieldParseError", "GaloisFixedSpec",
    "GradingError", "GroupExpr", "GroupParseError", "Localization", "RingPresentation",
    "UnsupportedError", "additive_table_from_presentation", "apply_cyclotomic_invariants",
    "catalog_presentation", "chow_integral_symmetric", "chow_model", "chow_model_localized",
    "chow_model_mod_p", "chow_symmetric_local", "chow_symmetric_sylow_bound", "chow_wreath",
    "contains_mu", "cyclic", "cyclotomic_order", "errors", "fields", "format_group",
    "galois_fixed_exponent", "generator_bound", "graded", "groups", "localize_table",
    "mod_p_table", "models", "parse_field", "parse_group_expr", "presentations", "sylow_group",
    "tables",
]  # fmt: skip
__version__ = "0.1.0"
