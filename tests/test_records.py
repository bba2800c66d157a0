"""The package's result and configuration records stay immutable."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from tauchar.cases import classify, local_factor
from tauchar.constants import main_term, main_term_params
from tauchar.curves import (
    CurveConfig,
    ShortIntervalInstance,
    bound_shapes,
    range_scan,
)
from tauchar.dirichlet import verify_factorization
from tauchar.sieves import CoeffSeries
from tauchar.summatory import rh_diagnostic, trace


def _records():
    """One instance of every record, with a field of it to assign."""
    scan = range_scan(ShortIntervalInstance(Fraction(10**6), Fraction(300)))
    report = verify_factorization(7, 200)
    return [
        (classify(7), "q"),
        (local_factor(7), "name"),
        (main_term_params(7), "leading_coefficient"),
        (main_term(7, 10**6), "value"),
        (CurveConfig(3.125**2, Fraction(1), 1, 0.125**2), "delta_sq"),
        (ShortIntervalInstance(Fraction(10**6), Fraction(300)), "y"),
        (bound_shapes(16, 10**7, 3000), "delta"),
        (scan.rows[0], "n_lo"),
        (scan, "short_sum"),
        (report.routes[0], "ok"),
        (report, "routes"),
        (CoeffSeries(3, np.zeros(4, dtype=np.int64)), "limit"),
        (trace(13, [100, 1000]), "values"),
        (rh_diagnostic(19, [100, 1000]), "values"),
    ]


def test_every_record_refuses_assignment():
    records = _records()
    assert len({type(r) for r, _ in records}) == len(records)
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is not None, type(record).__name__


def test_validated_records_compare_by_value():
    # equal fields, equal records, equal hashes; another class is not equal
    a = CurveConfig(1024, Fraction(5, 2), 4, Fraction(1, 100))
    b = CurveConfig(1024, Fraction(5, 2), 4, Fraction(1, 100))
    assert a == b and hash(a) == hash(b)
    assert a != CurveConfig(1024, Fraction(5, 2), 5, Fraction(1, 100))
    assert ShortIntervalInstance(10, 1) == ShortIntervalInstance(Fraction(10), 1)
    assert local_factor(7) == local_factor(7)
    assert local_factor(7) != local_factor(23)
    assert "name='pm1_mod8[q=7]'" in repr(local_factor(7))
    # a copy or a pickle round trip rebuilds an equal record
    for record in (a, local_factor(7), ShortIntervalInstance(10, 1)):
        assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    series = pickle.loads(pickle.dumps(CoeffSeries(3, np.arange(4, dtype=np.int64))))
    assert series[3] == 3 and not series.values.flags.writeable
    # the constructor normalises before it stores
    assert CurveConfig(3.125**2, 1, 1, 0.125**2).s == Fraction(1)
    assert ShortIntervalInstance(10**6, 300.0).y == Fraction(300)
