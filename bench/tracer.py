"""Spans at chowbg's layer boundaries, installed from outside the package.

``install()`` replaces each function in ``WRAPPED`` by a wrapper that
records a span (name, start, end, parent) and, for some layers, a size
count.  A function is replaced in every ``chowbg.*`` namespace that refers
to it, because modules import each other's functions by name: ``models``
calls its own ``cyclic_power_codim`` binding and ``cyclic`` its own
``normalize``, so patching only the defining module would silently miss
those spans.  ``check_coverage`` asserts that no namespace still refers to
an original.

The memo caches of ``chow_model`` and ``_intmath.factorint`` are read from
their ``cache_info()``; ``factorint`` runs once per summand inside
``normalize``, so it is not wrapped.
"""

from __future__ import annotations

import sys
from time import perf_counter

from answer import answer_stats

# (defining module, function, span name)
WRAPPED = [
    ("chowbg.cli", "run", "cli.run"),
    ("chowbg.cli", "render_table", "cli.render"),
    ("chowbg.cli", "table_to_json_obj", "cli.json"),
    ("chowbg.cli", "_emit_json", "cli.json"),
    ("chowbg.groups", "parse_group_expr", "groups.parse"),
    ("chowbg.fields", "parse_field", "fields.parse"),
    ("chowbg.fields", "apply_cyclotomic_invariants", "fields.cyclotomic_filter"),
    ("chowbg.fields", "galois_fixed_exponent", "fields.galois_exponent"),
    ("chowbg.presentations", "additive_table_from_presentation", "presentations.expand"),
    ("chowbg.graded", "normalize", "graded.normalize"),
    ("chowbg.graded", "tensor", "graded.tensor"),
    ("chowbg.graded", "from_table", "graded.from_table"),
    ("chowbg.graded", "to_table", "graded.to_table"),
    ("chowbg.cyclic", "cyclic_power_codim", "cyclic.power_codim"),
    ("chowbg.models", "chow_model", "models.chow_model"),
    ("chowbg.models", "chow_model_localized", "models.localized"),
    ("chowbg.models", "chow_model_mod_p", "models.mod_p"),
    ("chowbg.models", "chow_wreath", "models.wreath"),
    ("chowbg.models", "chow_symmetric_sylow_bound", "models.sylow_bound"),
    ("chowbg.models", "chow_symmetric_local", "models.symmetric_local"),
    ("chowbg.models", "chow_integral_symmetric", "models.integral_symmetric"),
    ("chowbg.models", "localize_table", "models.localize_table"),
    ("chowbg.models", "mod_p_table", "models.mod_p_table"),
    ("chowbg._intmath", "is_prime", "intmath.is_prime"),
]

# The table a CLI request answers with is the result of the first of these
# that cli.run calls.
_ANSWER_SPANS = {"models.chow_model", "models.localized", "models.mod_p", "models.sylow_bound"}


def _summands_in(counts, args, result):
    counts["summands_in"] = counts.get("summands_in", 0) + len(args[0].summands)


def _summands_out(counts, args, result):
    counts["summands_out"] = counts.get("summands_out", 0) + len(result.summands)


def _summands_in_out(counts, args, result):
    _summands_in(counts, args, result)
    _summands_out(counts, args, result)


def _table_summands_out(counts, args, result):
    counts["summands_out"] = counts.get("summands_out", 0) + answer_stats(result)[0]


_COUNTERS = {
    "graded.normalize": _summands_in,
    "graded.tensor": _summands_out,
    "cyclic.power_codim": _summands_in_out,
    "presentations.expand": _table_summands_out,
}


def _chowbg_modules():
    return [m for name, m in list(sys.modules.items()) if name == "chowbg" or name.startswith("chowbg.")]


class Tracer:
    """Spans, size counts and answers recorded by the installed wrappers."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, int]] = {}
        self.answers: list[tuple[int, int]] = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)
        counts = self.counts.setdefault(name, {})
        is_answer = name in _ANSWER_SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            if is_answer and parent >= 0 and spans[parent][0] == "cli.run":
                self.answers.append(answer_stats(result))
            return result

        wrapper.__bench_span__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = _chowbg_modules()
        for module_name, attr, span in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            self.originals[f"{module_name}.{attr}"] = original
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        check_coverage(self.originals.values())

    def cache_counts(self) -> dict[str, int]:
        info = self.originals["chowbg.models.chow_model"].cache_info()
        factorint = sys.modules["chowbg._intmath"].factorint.cache_info()
        return {
            "hits": info.hits,
            "misses": info.misses,
            "entries": info.currsize,
            "factorint_misses": factorint.misses,
        }


def check_coverage(originals) -> None:
    """Fail if any chowbg namespace still refers to an unwrapped original."""
    ids = {id(f) for f in originals}
    stale = [
        f"{module.__name__}.{key}"
        for module in _chowbg_modules()
        for key, value in vars(module).items()
        if id(value) in ids
    ]
    if stale:
        raise AssertionError(f"unwrapped references left: {', '.join(sorted(stale))}")


def check_unwrapped() -> None:
    """Fail if any chowbg namespace holds a wrapper (timed runs trace nothing)."""
    wrapped = [
        f"{module.__name__}.{key}"
        for module in _chowbg_modules()
        for key, value in vars(module).items()
        if hasattr(value, "__bench_span__")
    ]
    if wrapped:
        raise AssertionError(f"timed run has wrappers installed: {', '.join(wrapped)}")
