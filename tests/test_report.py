"""The package's records: fields that match the constructor, read-only
storage, value or identity equality, copy and pickle, the field-listing
repr, and ``BranchData.replace``; and ``canonical_json`` against the
two-pass encoder it replaced."""

import copy
import importlib.util
import json
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# every module that defines records, so that Record knows all its subclasses
import treeshift.cli
import treeshift.models
import treeshift.truncation
from treeshift import (
    AtomicMeasure,
    BranchData,
    MeasureSystem,
    StieltjesVerdict,
    ValidationReport,
    WeightedShift,
    explicit_tree,
    make_family,
    truncate,
)
from treeshift.report import Record, canonical_json


def _path_inputs():
    shift = WeightedShift(make_family("unilateral", 3), {1: 1.0, 2: 1.0, 3: 1.0})
    mu = {v: AtomicMeasure.delta(1.0) for v in range(4)}
    return shift, MeasureSystem(mu=mu, eps={v: 0.0 for v in range(4)})


def _branch_data():
    measure = AtomicMeasure.delta(1.0)
    return BranchData(
        eta=2, kappa=1.0, branch_measures=(measure, measure), entry_weights=(0.5, 0.5),
        trunk_weights=(1.0,),
    )


def test_each_record_has_its_constructor_parameters_as_fields():
    # equality, hashing and repr read the fields, so they must be exactly
    # what the constructor takes, in its order
    classes = Record.__subclasses__()
    assert len(classes) == 21
    for cls in classes:
        code = cls.__init__.__code__
        assert cls._fields == code.co_varnames[1 : code.co_argcount], cls.__name__


def test_value_records_compare_and_hash_by_their_fields():
    a = AtomicMeasure(((2.0, 0.5), (1.0, 0.5)))
    b = AtomicMeasure(((1.0, 0.5), (2.0, 0.5)))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != AtomicMeasure.delta(1.0) and a != a.atoms
    refuted = StieltjesVerdict("refuted", 4, 0.5, -0.5, "hankel", (1, -1), -0.1)
    same = StieltjesVerdict(
        status="refuted", order=4, min_pivot_hankel=0.5, min_pivot_shifted=-0.5,
        witness_block="hankel", witness_vector=(1, -1), witness_value=-0.1,
    )
    assert refuted == same and len({refuted, same}) == 1
    assert refuted != StieltjesVerdict("refuted", 4, 0.5, -0.5)


def test_trees_shifts_and_truncation_entries_compare_by_identity():
    def path():
        return explicit_tree([0, 1, 2], {1: 0, 2: 1})

    shift, system = _path_inputs()
    pairs = [
        (path(), path()),
        (WeightedShift(path(), {1: 1.0, 2: 1.0}), WeightedShift(path(), {1: 1.0, 2: 1.0})),
        (truncate(system, shift, 2), truncate(system, shift, 2)),
    ]
    for first, second in pairs:
        assert first == first and first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2


def test_fields_are_read_only():
    shift, system = _path_inputs()
    records = [
        AtomicMeasure.delta(1.0), shift.tree, shift, system, truncate(system, shift, 2),
        _branch_data(), treeshift.cli.RunConfig("moments"),
    ]
    for record in records:
        name = record._fields[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is value


def test_records_copy_and_pickle_through_their_constructor():
    shift, system = _path_inputs()
    for record in (AtomicMeasure.delta(1.0), system, _branch_data()):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    clone = pickle.loads(pickle.dumps(shift))
    assert clone != shift and clone.weights == shift.weights
    assert clone.tree.children(0) == (1,) and clone.tree.available_depth(0) == 3


def test_repr_lists_the_fields_but_not_the_caches():
    assert repr(AtomicMeasure.delta(2.0, 0.5)) == "AtomicMeasure(atoms=((2.0, 0.5),))"
    assert repr(ValidationReport(())) == "ValidationReport(violations=())"
    text = repr(explicit_tree([0, 1], {1: 0}))
    assert text.startswith("DirectedTree(vertices=frozenset({0, 1}), parent={1: 0}, ")
    assert text.endswith("rootless_family=False, frontier=frozenset())")
    assert "_children" not in text


def test_branch_data_replace_validates_the_copy():
    data = _branch_data()
    assert data.kappa == 1 and data.entry_weights == (0.5 + 0j, 0.5 + 0j)
    nu = AtomicMeasure.delta(2.0)
    copy = data.replace(nu=nu)
    assert copy.nu is nu and data.nu is None
    assert copy.replace(nu=None) == data
    with pytest.raises(ValueError, match="eta >= 2"):
        data.replace(eta=1)
    with pytest.raises(ValueError, match="exactly 2 trunk weights"):
        data.replace(kappa=2)
    with pytest.raises(ValueError, match="one entry weight per branch"):
        data.replace(entry_weights=(0.5,))
    with pytest.raises(TypeError):
        data.replace(depth=3)


# -- canonical_json -------------------------------------------------------------


def jsonable(value):
    """The former first pass: the report as JSON-encodable primitives."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if hasattr(value, "as_dict"):
        return jsonable(value.as_dict())
    return str(value)


def two_pass_json(obj) -> str:
    """The oracle: the encoder ``canonical_json`` replaced, byte for byte."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


class Real(float):
    pass


class Count(int):
    pass


class Name(str):
    pass


class Holder:
    """A record: encoded through ``as_dict``."""

    def __init__(self, body):
        self.body = body

    def as_dict(self):
        return self.body


class Opaque:
    """No ``as_dict``: encoded as its ``str``."""

    def __init__(self, label):
        self.label = label

    def __str__(self):
        return f"<opaque {self.label}>"


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]
)
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats())
TEXT = st.one_of(st.text(), st.text(st.characters(max_codepoint=0x1F)), st.just("ü\u2028\U0001F600"))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
    st.builds(complex, FLOATS, FLOATS),
    FLOATS.map(Real), st.integers().map(Count), TEXT.map(Name), TEXT.map(Opaque),
)
# 1 and "1", 1.0 and "1.0", True and "True", (1, 2) and "(1, 2)" collide under str()
KEYS = st.one_of(
    st.integers(-2, 2), st.booleans(), FLOATS, TEXT,
    st.sampled_from(["1", "-1", "0", "1.0", "True", "nan", "(1, 2)", "é"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        children.map(Holder),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_canonical_json_is_byte_equal_to_the_two_pass_encoder(value):
    assert canonical_json(value) == two_pass_json(value)


def test_canonical_json_edge_cases():
    cases = [
        {}, [], (), {"": {}}, {1: "int", "1": "str"}, {"1": "str", 1: "int"},
        {"z": complex(math.inf, math.nan), "a": [math.nan, -math.inf, -0.0]},
        [True, 1, False, 0, None, Count(7), Real(2.5), Name("\x00é")],
        Holder({"nested": Holder([Opaque("x"), ()])}),
    ]
    for value in cases:
        assert canonical_json(value) == two_pass_json(value), value


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_canonical_json_matches_on_the_benchmark_reports(monkeypatch):
    # the first-cycle reports of verify-deep and construct-from-moments at
    # seed 1, and the largest verify-wide window: the reports whose digests
    # the benchmark compares across commits
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling gen
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    program = workloads.load_program()
    widest = max(workloads.cycle_ops("verify-wide", 1, 0), key=lambda o: o["size"])
    ops = workloads.cycle_ops("verify-deep", 1, 0) + workloads.cycle_ops(
        "construct-from-moments", 1, 0
    )
    for operation in [widest, *ops]:
        report = workloads.run_op(program, operation)
        assert canonical_json(report) == two_pass_json(report), operation["kind"]
