"""The package's records: fields that match the constructor, read-only
storage, value or identity equality, copy and pickle, the field-listing
repr, and ``BranchData.replace``."""

import copy
import pickle

import pytest

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
from treeshift.report import Record


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
    assert len(classes) == 22
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
