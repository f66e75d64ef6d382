"""chowbg: exact additive tables and ring presentations for Chow rings of
classifying spaces of a fixed catalog of algebraic groups, over a
parameterized base field.

``chowbg.graded`` and ``chowbg.cyclic``, the labelled reference API that
the tests check the compute path against, load on first use: both are in
``sys.modules`` from the start, and their code runs on the first read of
one of their names, here or on the submodule.  No CLI call reads one, so
a CLI process never compiles or runs them."""

import sys
from importlib.util import find_spec, module_from_spec
from threading import RLock
from types import ModuleType

from .errors import (
    FieldParseError,
    GradingError,
    GroupParseError,
    UnsupportedError,
)
from .fields import (
    FieldDescriptor,
    GaloisFixedSpec,
    apply_cyclotomic_invariants,
    contains_mu,
    cyclotomic_order,
    galois_fixed_exponent,
    parse_field,
)
from .groups import (
    GroupExpr,
    SylowProfile,
    abelian_invariant_factors,
    abelianization,
    format_group,
    generator_bound,
    group_dimension,
    parse_group_expr,
    sylow_profile,
)
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
from .presentations import (
    RingPresentation,
    additive_table_from_presentation,
    catalog_presentation,
)
from .tables import ChowTable, DegreeRow, Localization

# the names these two submodules export through the package
_ON_FIRST_USE = {
    "cyclic": ("cyclic_power_codim", "cyclic_power_dim", "rotation_orbit_summary"),
    "graded": (
        "CODIM", "Alpha", "Codim", "CyclicSummand", "Dim", "Gamma", "Generator",
        "GradedAbelianGroup", "Tensor", "convert_to_codim", "degree_orders", "direct_sum",
        "localize", "mod_p_dimension", "normalize", "tensor", "to_table",
    ),
}  # fmt: skip
_EXPORTED_BY = {name: module for module, names in _ON_FIRST_USE.items() for name in names}

# what the import system sets and reads; reading these runs no module code
_IMPORT_ATTRIBUTES = frozenset((
    "__name__", "__spec__", "__loader__", "__package__", "__path__", "__file__", "__cached__",
    "__dict__", "__class__",
))  # fmt: skip
# one lock for both, re-entrant: loading cyclic loads graded
_first_use_lock = RLock()


class _FirstUseModule(ModuleType):
    """A registered submodule whose code has not run yet.  The first read
    of any other attribute runs it under ``_first_use_lock``, and a read in
    another thread waits there until it has run to its end; the module then
    becomes a plain module, so later reads cost nothing extra."""

    def __getattribute__(self, name):
        with _first_use_lock:
            if type(self) is _FirstUseModule and name not in _IMPORT_ATTRIBUTES:
                _run(self)
        return ModuleType.__getattribute__(self, name)

    def __dir__(self):
        with _first_use_lock:
            if type(self) is _FirstUseModule:
                _run(self)
        return ModuleType.__dir__(self)


def _run(module: ModuleType) -> None:
    """Run the module's code in its namespace; the loader reads only import
    attributes of the module, and its code reads none, so this runs once."""
    ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
    module.__class__ = ModuleType


def _register(name: str) -> ModuleType:
    module = module_from_spec(find_spec(f"{__name__}.{name}"))
    module.__class__ = _FirstUseModule
    sys.modules[module.__name__] = module
    return module


cyclic = _register("cyclic")
graded = _register("graded")


def __getattr__(name):
    if name in _EXPORTED_BY:
        return getattr(globals()[_EXPORTED_BY[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTED_BY})


__all__ = [
    "Alpha", "CODIM", "ChowTable", "Codim", "CyclicSummand", "DegreeRow", "Dim",
    "FieldDescriptor", "FieldParseError", "GaloisFixedSpec", "Gamma", "Generator",
    "GradedAbelianGroup", "GradingError", "GroupExpr", "GroupParseError", "Localization",
    "RingPresentation", "SylowProfile", "Tensor", "UnsupportedError",
    "abelian_invariant_factors", "abelianization", "additive_table_from_presentation",
    "apply_cyclotomic_invariants", "catalog_presentation", "chow_integral_symmetric",
    "chow_model", "chow_model_localized", "chow_model_mod_p", "chow_symmetric_local",
    "chow_symmetric_sylow_bound", "chow_wreath", "contains_mu", "convert_to_codim",
    "cyclic", "cyclic_power_codim", "cyclic_power_dim", "cyclotomic_order", "degree_orders",
    "direct_sum", "errors", "fields", "format_group", "galois_fixed_exponent",
    "generator_bound", "graded", "group_dimension", "groups", "localize", "localize_table",
    "mod_p_dimension", "mod_p_table", "models", "normalize", "parse_field",
    "parse_group_expr", "presentations", "rotation_orbit_summary", "sylow_profile",
    "tables", "tensor", "to_table",
]  # fmt: skip
__version__ = "0.1.0"
