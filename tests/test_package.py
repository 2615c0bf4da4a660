import importlib
import pickle
from fractions import Fraction

import pytest

import densebip
from densebip.extractor import ExtractionResult, Params, SampleOutcome
from densebip.graph import BipartitePairReport, Graph
from densebip.oracle import OracleResult
from densebip.reducer import OrderedGraph
from densebip.stats import ConditionalTrial, Estimate, MarkovBound, QBoundCheck


def test_public_names_resolve_to_their_module_objects():
    assert len(set(densebip.__all__)) == len(densebip.__all__)
    for module_name, names in densebip._EXPORTS.items():
        module = importlib.import_module(f"densebip.{module_name}")
        for name in names:
            value = getattr(densebip, name)
            assert value is getattr(module, name)
            # functions and classes are exported from the module that defines them
            assert getattr(value, "__module__", module.__name__) == module.__name__


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from densebip import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(densebip.__all__)


def test_dir_lists_every_public_name():
    assert set(densebip.__all__) <= set(dir(densebip))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        densebip.no_such_name
    assert not hasattr(densebip, "no_such_name")


# each record, its fields in order, and a factory of fresh field values
RECORDS = {
    "Graph": (Graph, ["adjacency"], lambda: (((1,), (0,)),)),
    "BipartitePairReport": (
        BipartitePairReport,
        ["I", "J", "cross_edges", "average_degree", "valid", "reason"],
        lambda: ((0,), (1,), 1, Fraction(1), False, "sides overlap"),
    ),
    "OrderedGraph": (
        OrderedGraph, ["graph", "order", "d"], lambda: (Graph(((1,), (0,))), (1, 0), 1)
    ),
    "Params": (
        Params, ["d", "ell", "p", "q", "threshold", "guarantee"],
        lambda: (16, 2, Fraction(1, 16), Fraction(3, 16), 1, True),
    ),
    "SampleOutcome": (
        SampleOutcome,
        ["sampled", "survivors", "layer", "supported", "layer_edges", "potential"],
        lambda: ((0, 1), (0,), (1,), (1,), 0, Fraction(-1, 2)),
    ),
    "ExtractionResult": (
        ExtractionResult,
        ["I", "J", "report", "trials_used", "seed", "params", "meets_floor"],
        lambda: (
            (0,), (1,), BipartitePairReport((0,), (1,), 1, Fraction(1), True, None), 3, 7,
            Params(16, 2, Fraction(1, 16), Fraction(3, 16), 1, True), None,
        ),
    ),
    "Estimate": (
        Estimate, ["mean", "trials", "ci_low", "ci_high", "target", "passed"],
        lambda: (0.5, 10, 0.25, 0.75, 0.2, True),
    ),
    "QBoundCheck": (QBoundCheck, ["d", "ell", "ratio", "passed"], lambda: (16, 2, 0.4, True)),
    "ConditionalTrial": (
        ConditionalTrial, ["vertex", "forced", "sampled"], lambda: (3, (1,), (1, 5))
    ),
    "MarkovBound": (
        MarkovBound, ["mean_missing", "frac_high_missing", "ell", "trials"],
        lambda: (0.5, 0.125, 2, 100),
    ),
    "OracleResult": (
        OracleResult, ["best_value", "witness_I", "witness_J"], lambda: (Fraction(1), (0,), (1,))
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, fields, values = RECORDS[name]
    record = cls(*values())
    assert cls._fields == tuple(fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    twin = cls(*values())
    assert twin == record and hash(twin) == hash(record)
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls and clone == record
    shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values()))
    assert repr(record) == f"{name}({shown})"
    if cls is BipartitePairReport:
        assert cls(*values()[:-1]).reason is None
