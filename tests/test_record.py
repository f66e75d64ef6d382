"""The value classes behave as the frozen dataclasses they replace.

Every class built on ``chowbg._record.Record`` keeps the dataclass repr
text, class-sensitive equality and hashing, positional ``match``
patterns, pickling, ``FrozenInstanceError`` on assignment and deletion,
and its constructor's validation messages in their original order.  The
last test guards the reason for ``Record``: importing the CLI must not
load ``dataclasses`` or ``inspect``.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import chowbg
from chowbg._record import Record
from chowbg.errors import GradingError
from chowbg.fields import FieldDescriptor, galois_fixed_exponent, parse_field
from chowbg.graded import (
    CODIM,
    Alpha,
    Codim,
    CyclicSummand,
    Dim,
    Gamma,
    Generator,
    GradedAbelianGroup,
    Tensor,
)
from chowbg.groups import (
    G2,
    GL,
    SO,
    CyclicZ,
    FiniteAbelian,
    Gm,
    O,
    Product,
    Sp,
    Symmetric,
    Trivial,
    Wreath,
    parse_group_expr,
)
from chowbg.presentations import RingPresentation, catalog_presentation
from chowbg.tables import INTEGRAL, ChowTable, DegreeRow, Localization

ROOT = Path(__file__).resolve().parent.parent

# one sample of every Record class, with the repr its frozen dataclass gave
SAMPLES = [
    (Trivial(), "Trivial()"),
    (CyclicZ(2), "CyclicZ(n=2)"),
    (FiniteAbelian((4, 2)), "FiniteAbelian(factors=(4, 2))"),
    (Gm(), "Gm()"),
    (GL(2), "GL(n=2)"),
    (O(3), "O(n=3)"),
    (SO(5), "SO(n=5)"),
    (Sp(4), "Sp(n=4)"),
    (G2(), "G2()"),
    (Symmetric(4), "Symmetric(n=4)"),
    (Wreath(3, CyclicZ(3)), "Wreath(p=3, inner=CyclicZ(n=3))"),
    (Product(GL(1), O(2)), "Product(left=GL(n=1), right=O(n=2))"),
    (Generator("e1"), "Generator(name='e1')"),
    (
        Tensor((Generator("a"), Generator("b"))),
        "Tensor(parts=(Generator(name='a'), Generator(name='b')))",
    ),
    (Gamma(Generator("a")), "Gamma(inner=Generator(name='a'))"),
    (Alpha(Generator("a"), 4), "Alpha(inner=Generator(name='a'), target_degree=4)"),
    (Codim(), "Codim()"),
    (Dim(), "Dim(ambient=None)"),
    (Dim(5), "Dim(ambient=5)"),
    (
        CyclicSummand(4, 1, Generator("t")),
        "CyclicSummand(order=4, degree=1, label=Generator(name='t'))",
    ),
    (
        GradedAbelianGroup(CODIM, [CyclicSummand(0, 0, Generator("e"))], 2),
        "GradedAbelianGroup(grading=Codim(), summands=(CyclicSummand(order=0, degree=0, "
        "label=Generator(name='e')),), valid_through=2)",
    ),
    (Localization("at_prime", 3), "Localization(kind='at_prime', prime=3)"),
    (INTEGRAL, "Localization(kind='integral', prime=None)"),
    (
        ChowTable.from_rows((DegreeRow(0, 1, ()), DegreeRow(1, 0, (2,))), 1),
        "ChowTable(bound=1, free=(1, 0), levels=((2, ((1, 1),)),), group=None, field=None, "
        "localization=Localization(kind='integral', prime=None), provenance=('exact',))",
    ),
    (
        parse_field("C"),
        "FieldDescriptor(characteristic=0, kind='algebraically_closed', adjoined=(), name='C')",
    ),
    (
        parse_field("F_2(mu_3)"),
        "FieldDescriptor(characteristic=2, kind='cyclotomic_extension', adjoined=(3,), "
        "name='F_2(mu_3)')",
    ),
    (galois_fixed_exponent(3, 4), "GaloisFixedSpec(prime=3, codegree=4, exponent=1)"),
    (galois_fixed_exponent(3, 3), "GaloisFixedSpec(prime=3, codegree=3, exponent=None)"),
    (
        catalog_presentation(O(2)),
        "RingPresentation(group=O(n=2), generators=(('c1', 1), ('c2', 2)), "
        "torsion_relations=((2, 'c1'),), completeness='exact')",
    ),
]

VALUES = [value for value, _ in SAMPLES]


def _ids(samples):
    return [text.split("(", 1)[0] for _, text in samples]


@pytest.mark.parametrize("value, text", SAMPLES, ids=_ids(SAMPLES))
def test_repr_keeps_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=_ids(SAMPLES))
def test_equal_copies_hash_equally(value):
    twin = pickle.loads(pickle.dumps(value))
    if isinstance(value, (Wreath, Product)):
        assert twin is value  # interned: one node per class and field values
    else:
        assert twin is not value
    assert twin == value and not twin != value
    assert type(twin) is type(value) and hash(twin) == hash(value)


def test_a_live_node_is_found_without_the_lock(monkeypatch):
    from chowbg import groups

    class Refused:
        def __enter__(self):
            raise AssertionError("the intern lock was taken for a live node")

        def __exit__(self, *exc):
            return False

    inner = Product(GL(1), O(1))
    live = Wreath(3, inner)
    monkeypatch.setattr(groups, "_intern_lock", Refused())
    assert Wreath(3, inner) is live and Product(GL(1), O(1)) is inner
    for p in (0, 1, 4, 21):
        with pytest.raises(ValueError, match="wreath degree must be prime"):
            Wreath(p, inner)


def test_tree_nodes_are_interned_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    def build(_):
        tower = CyclicZ(2)
        for _ in range(300):
            tower = Wreath(2, tower)
        product = GL(1)
        for term in [O(1)] + [GL(1), O(1)] * 1999:
            product = Product(product, term)
        return tower, product

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            built = list(pool.map(build, range(8)))
    finally:
        sys.setswitchinterval(interval)
    tower, product = built[0]
    assert all(t is tower and p is product for t, p in built)
    assert product is parse_group_expr(" x ".join(["GL(1) x O(1)"] * 2000))
    assert copy.copy(tower) is tower and copy.copy(product) is product
    shallow = Wreath(2, Product(GL(1), O(1)))
    assert copy.deepcopy(shallow) is shallow


def test_classes_with_equal_fields_differ():
    same_fields = [CyclicZ(2), GL(2), O(2), SO(2), Sp(2), Symmetric(2)]
    assert len(set(same_fields)) == len(same_fields)
    for a in same_fields:
        for b in same_fields:
            assert (a == b) == (a is b)
    assert Trivial() != Gm() != G2() != Codim()
    assert Gamma(Generator("a")) != Generator("a")
    assert CyclicZ(2) != (2,) and CyclicZ(2) != 2
    assert DegreeRow(0, 1, ()) != (0, 1, ())


@pytest.mark.parametrize("value", VALUES, ids=_ids(SAMPLES))
def test_assignment_and_deletion_raise(value):
    for name in value.__match_args__ + ("extra",):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)


@pytest.mark.parametrize("value", VALUES, ids=_ids(SAMPLES))
def test_fields_are_slots(value):
    assert value.__slots__ == value.__match_args__
    assert not hasattr(value, "__dict__")


def test_degree_row_uses_record_freezing():
    row = DegreeRow(1, 0, (2, 2, 3))
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'counts'"):
        del row.counts
    assert row == DegreeRow.from_counts(1, 0, {3: 1, 2: 2})
    assert hash(row) == hash(DegreeRow.from_counts(1, 0, {3: 1, 2: 2}))


def test_positional_match_patterns():
    def shape(value):
        match value:
            case Wreath(p, CyclicZ(n)):
                return ("wreath", p, n)
            case Product(left, right):
                return ("product", shape(left), shape(right))
            case Alpha(Generator(name), j):
                return ("alpha", name, j)
            case CyclicSummand(order, degree, _):
                return ("summand", order, degree)
            case Localization(kind, prime):
                return (kind, prime)
            case Dim(ambient=None):
                return "unbounded"
            case Trivial():
                return "point"
        return None

    assert shape(Product(Wreath(3, CyclicZ(3)), Trivial())) == (
        "product",
        ("wreath", 3, 3),
        "point",
    )
    assert shape(Alpha(Generator("a"), 4)) == ("alpha", "a", 4)
    assert shape(CyclicSummand(4, 1, Generator("t"))) == ("summand", 4, 1)
    assert shape(Localization("mod_p", 5)) == ("mod_p", 5)
    assert shape(Dim()) == "unbounded"
    assert Wreath.__match_args__ == ("p", "inner")
    assert Codim.__match_args__ == ()


def test_keyword_construction_and_defaults():
    assert Localization(kind="integral") == INTEGRAL
    assert FieldDescriptor(characteristic=0, kind="algebraically_closed", name="C") == (
        parse_field("C")
    )
    table = ChowTable.from_rows(rows=[DegreeRow(0, 1, ())], bound=0)
    assert table.rows == (DegreeRow(0, 1, ()),) and table.provenance == ("exact",)
    assert table.localization is INTEGRAL and table.group is None and table.field is None
    assert ChowTable(bound=0, free=(1,), levels=()) == table


def test_with_metadata_replaces_fields():
    table = ChowTable.from_rows((DegreeRow(0, 1, ()),), 0)
    changed = table.with_metadata(group=GL(1), provenance=("exact", "upper-bound"))
    assert changed.group == GL(1) and changed.provenance == ("exact", "upper-bound")
    assert changed.rows == table.rows and changed.bound == 0
    assert table.group is None
    with pytest.raises(TypeError, match="'bound'"):  # metadata only: the series are not replaced
        table.with_metadata(bound=1)
    with pytest.raises(TypeError):
        table.with_metadata(bogus=1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Trivial(1), "Trivial() takes 0 positional arguments but 1 were given"),
        (lambda: Generator(), "Generator() takes 1 positional arguments but 0 were given"),
        (lambda: Alpha(Generator("a")), "Alpha() takes 2 positional arguments but 1 were given"),
    ],
    ids=["Trivial", "Generator", "Alpha"],
)
def test_record_init_counts_its_values(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_fields_are_stored_only_by_record():
    # no module but _record stores a field past Record.__setattr__: no
    # object.__setattr__ call and no slot-descriptor __set__ captured by hand
    import ast

    package = ROOT / "src" / "chowbg"
    stores = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and (
                node.attr == "__set__"
                or (node.attr == "__setattr__" and getattr(node.value, "id", None) == "object")
            ):
                stores.append(f"{path.name}:{node.lineno}")
    assert stores == []


def test_table_comparison_and_views_come_from_record_and_tables():
    from chowbg import models, tables

    for name in ("_key", "__eq__", "__hash__", "__repr__", "__reduce__", "_stored", "with_series"):
        assert name not in vars(ChowTable)
    table = ChowTable.from_rows((DegreeRow(0, 1, ()),), 0)
    assert table._values(table) == (0, (1,), (), None, None, INTEGRAL, ("exact",))
    unbuilt = pickle.loads(pickle.dumps(table))  # the row cache is not compared or pickled
    assert unbuilt._rows is None and unbuilt == table and hash(unbuilt) == hash(table)
    assert models.localize_table is tables.localize_table
    assert models.mod_p_table is tables.mod_p_table


class _Cached(Record):
    """A record with a cache slot, filled by a caller, that no value reads."""

    __slots__ = ("a", "b", "_cache")

    def __init__(self, a, b, cache=None):
        super().__init__(a, b, cache)


@pytest.mark.parametrize("cache", [None, 0, "stale", -1])
def test_a_cache_slot_is_skipped_by_eq_hash_pickling_and_repr(cache):
    value, plain = _Cached(1, (2,), cache), _Cached(1, (2,))
    assert value == plain and hash(value) == hash(plain) == hash((1, (2,)))
    assert value != _Cached(1, (3,), cache) and value._cache == cache
    assert repr(value) == "_Cached(a=1, b=(2,))"
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert twin == value and hash(twin) == hash(value) and twin._cache is None
    with pytest.raises(FrozenInstanceError, match="cannot assign to field '_cache'"):
        value._cache = 1


@pytest.mark.parametrize("text", ["C", "Q", "F_7", "F_2(mu_3)", "Q(mu_5)"])
def test_a_field_keeps_the_hash_of_its_values(text):
    # the hash is computed once, from the same values that eq and pickling read
    k = parse_field(text)
    assert k._hash == hash(k) == hash(k._values(k)) == Record.__hash__(k)
    twin = pickle.loads(pickle.dumps(k))
    assert twin == k and twin is not k and twin._hash == k._hash
    assert "_hash" not in repr(k) and "_rows" not in repr(ChowTable(0, (1,), ()))


G = Generator("g")
FAULTS = [
    (lambda: CyclicZ(0), ValueError, "cyclic order must be >= 1"),
    (lambda: FiniteAbelian(()), ValueError, "invariant factors must be >= 2"),
    (lambda: FiniteAbelian((2, 1)), ValueError, "invariant factors must be >= 2"),
    (
        lambda: FiniteAbelian((2, 4)),
        ValueError,
        "factors must form a divisibility chain, largest first",
    ),
    (lambda: GL(0), ValueError, "GL rank must be >= 1"),
    (lambda: O(0), ValueError, "O rank must be >= 1"),
    (lambda: SO(0), ValueError, "SO rank must be >= 1"),
    (lambda: Sp(3), ValueError, "Sp argument must be even and >= 2"),
    (lambda: Sp(0), ValueError, "Sp argument must be even and >= 2"),
    (lambda: Symmetric(0), ValueError, "symmetric group degree must be >= 1"),
    (lambda: Wreath(4, CyclicZ(2)), ValueError, "wreath degree must be prime"),
    (lambda: CyclicSummand(-1, -1, G), ValueError, "order must be >= 0, got -1"),
    (lambda: CyclicSummand(0, -1, G), ValueError, "degree must be >= 0, got -1"),
    (lambda: GradedAbelianGroup(CODIM, (), -1), ValueError, "valid_through must be >= 0"),
    (
        lambda: GradedAbelianGroup(CODIM, [CyclicSummand(0, 3, G)], 2),
        GradingError,
        "summand degree 3 outside authoritative window [0, 2]",
    ),
    (
        lambda: GradedAbelianGroup(Dim(10), [CyclicSummand(0, 3, G)], 2),
        GradingError,
        "summand degree 3 outside authoritative window [8, 10]",
    ),
    (lambda: Localization("local"), ValueError, "unknown localization kind 'local'"),
    (
        lambda: Localization("integral", 2),
        ValueError,
        "prime required exactly for at_prime / mod_p",
    ),
    (lambda: Localization("mod_p"), ValueError, "prime required exactly for at_prime / mod_p"),
    (
        lambda: ChowTable.from_rows((), -1),
        ValueError,
        "table must have one row per degree 0..bound",
    ),
    (
        lambda: ChowTable.from_rows((DegreeRow(1, 0, ()),), 0),
        ValueError,
        "table must have one row per degree 0..bound",
    ),
    (lambda: FieldDescriptor(4, "weird"), ValueError, "characteristic must be 0 or prime"),
    (lambda: FieldDescriptor(0, "weird"), ValueError, "unknown field kind 'weird'"),
    (
        lambda: FieldDescriptor(0, "cyclotomic_extension"),
        ValueError,
        "cyclotomic extension needs at least one adjoined order",
    ),
    (
        lambda: RingPresentation(GL(2), (("c1", 1), ("c1", 0)), ((1, "c9"),), "maybe"),
        ValueError,
        "generator names must be unique",
    ),
    (
        lambda: RingPresentation(GL(2), (("c0", 0),), ((1, "c9"),), "maybe"),
        ValueError,
        "generator degrees must be >= 1",
    ),
    (
        lambda: RingPresentation(GL(2), (("c1", 1),), ((1, "c9"),), "maybe"),
        ValueError,
        "torsion coefficients must be >= 2",
    ),
    (
        lambda: RingPresentation(GL(2), (("c1", 1),), ((2, "c9"),), "maybe"),
        ValueError,
        "relation names a missing generator",
    ),
    (
        lambda: RingPresentation(GL(2), (("c1", 1),), ((2, "c1"), (3, "c1")), "maybe"),
        ValueError,
        "each generator takes at most one torsion relation",
    ),
    (
        lambda: RingPresentation(GL(2), (("c1", 1),), (), "maybe"),
        ValueError,
        "unknown completeness 'maybe'",
    ),
]


@pytest.mark.parametrize("make, error, message", FAULTS, ids=[m for _, _, m in FAULTS])
def test_validation_messages_kept(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


ALL_NAMES = [
    "ChowTable", "DegreeRow", "FieldDescriptor", "FieldParseError", "GaloisFixedSpec",
    "GradingError", "GroupExpr", "GroupParseError", "Localization", "RingPresentation",
    "UnsupportedError", "additive_table_from_presentation",
    "apply_cyclotomic_invariants",
    "catalog_presentation", "chow_integral_symmetric", "chow_model", "chow_model_localized",
    "chow_model_mod_p", "chow_symmetric_local", "chow_symmetric_sylow_bound", "chow_wreath",
    "contains_mu", "cyclic", "cyclotomic_order", "errors", "fields", "format_group",
    "galois_fixed_exponent", "generator_bound", "graded", "groups",
    "localize_table", "mod_p_table", "models", "parse_field", "parse_group_expr",
    "presentations", "sylow_group", "tables",
]  # fmt: skip


def test_cli_import_skips_dataclasses_and_keeps_exports():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys, chowbg.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0 and child.stderr == ""
    assert child.stdout == "[]\n"
    assert len(ALL_NAMES) == 39
    assert sorted(chowbg.__all__) == ALL_NAMES
