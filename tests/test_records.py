"""Every result type is a record on mpreal._Frozen, and behaves as a frozen
dataclass would: read-only, equal within its class, hashed, copied and
pickled by value, and shown as Name(field=value, ...)."""

import copy
import pickle
from fractions import Fraction

import pytest

from flintlab import (
    CheckpointMismatchError,
    MpReal,
    SeriesSpec,
    cf_terms,
    check_criterion,
    equivalence_experiment,
    g_value,
    partial_sum,
    scan_criterion,
    spike_indices,
    verify_angle_difference,
)
from flintlab.mpreal import _Frozen

RECORDS = {
    "CriterionReport": lambda: check_criterion(355, 1, "0.1"),
    "ScanResult": lambda: scan_criterion((1, 400), 1, "0.1"),
    "SeriesSpec": lambda: SeriesSpec(s=1, v="21/10", bits=64),
    "PartialSumResult": lambda: partial_sum(10, SeriesSpec()),
    "EquivalenceRow": lambda: equivalence_experiment(10, 1)[1],
    "ResidualReport": lambda: verify_angle_difference(MpReal(3, 0), MpReal(1, -1)),
    "GValue": lambda: g_value(7),
    "CfExpansion": lambda: cf_terms(Fraction(355, 113), 5),
    "SpikeRecord": lambda: spike_indices(400)[-1],
}


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", RECORDS)
def test_records_behave_as_frozen_dataclasses(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, _Frozen)
    assert not hasattr(record, "__dict__")
    values = tuple(getattr(record, field) for field in cls._fields)

    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1

    class Other(cls):
        __slots__ = ()

    twin = cls(*values)
    assert twin == record and not twin != record
    assert Other(*values) != record and record != Other(*values)
    assert record != values

    if _hashable(values):
        assert hash(twin) == hash(record)
    else:                       # a list or dict field, as in a frozen dataclass
        with pytest.raises(TypeError):
            hash(record)

    data = pickle.dumps(record)
    back = pickle.loads(data)
    assert type(back) is cls and pickle.dumps(back) == data
    copied = copy.copy(record)
    assert type(copied) is cls and copied == record

    shown = ", ".join(f"{field}={value!r}" for field, value in zip(cls._fields, values))
    assert repr(record) == f"{name}({shown})"


def test_checkpoint_mismatch_prints_both_specs():
    half = partial_sum(10, SeriesSpec(s=1))
    with pytest.raises(CheckpointMismatchError) as info:
        partial_sum(20, SeriesSpec(v="21/10"), checkpoint=half)
    assert str(info.value) == (
        "checkpoint parameters SeriesSpec(s=1, u=2, v=3, bits=128) do not match "
        "requested SeriesSpec(s=0, u=2, v=Fraction(21, 10), bits=128)")
