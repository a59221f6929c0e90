"""The public behaviour of the eleven record types, one table row each.

Every record is built from its fields in declaration order, positionally or
by keyword, with no defaults; it is frozen (assignment and deletion raise
``AttributeError``); value records compare and hash by their fields and the
others by identity; the repr lists the fields; and pickling round-trips.
"""

import inspect
import pickle
from fractions import Fraction

import numpy as np
import pytest

import nethom as nh

_PATH = nh.Graph.from_edges(3, [(0, 1), (1, 2)])

# type name -> (field values in declaration order, compares by value, hashable)
RECORDS = {
    "Graph": (
        dict(
            n=2,
            edges_u=np.array([0], dtype=np.int32),
            edges_v=np.array([1], dtype=np.int32),
            degrees=np.array([1, 1]),
            labels=("a", "b"),
        ),
        False,
        True,
    ),
    "GraphSummary": (
        dict(
            n=3, m=2, pi3=1, ordered_disjoint_pairs=0, sum_sq_degrees=6,
            rho=2 / 3, delta1=4 / 3, delta2=2.0, upsilon=1 / 6,
        ),
        True,
        True,
    ),
    "Profile": (dict(sizes=(2, 1)), True, True),
    "Coloring": (
        dict(assignment=np.array([0, 1, 0], dtype=np.int32), class_labels=("x", "y")), False, True
    ),
    "ObservedOutcome": (dict(counts=(1, 0)), True, True),
    "MomentSummary": (
        dict(
            size=(1, 2),
            mbar=(Fraction(0), Fraction(2, 3)),
            var=(Fraction(0), Fraction(2, 9)),
            slot=np.array([1, 0]),
        ),
        False,
        True,
    ),
    "WeightVector": (dict(w=np.array([0.5, 1.0, 2.0])), True, False),
    "IndexReport": (
        dict(
            observed=(1,), mbar=(0.5,), z=(1.0,), a=0.5, r=0.5, h=None,
            j_theta={"ratio": 0.5}, newman_q=None, descriptive_ratio=1.0, notes=("a note",),
        ),
        True,
        False,
    ),
    "ExactDistribution": (
        dict(
            graph=_PATH, profile=nh.Profile((2, 1)), outcome_counts={(1, 0): 2, (0, 0): 1}, total=3
        ),
        False,
        True,
    ),
    "TailEstimate": (dict(estimate=0.25, half_width=0.1, samples=100, seed=3), True, True),
    "TreeGammaReport": (
        dict(
            n=3, gamma_max=Fraction(-1, 9), gamma_min=Fraction(-1, 9), max_count=3, min_count=3,
            max_all_paths=True, min_all_stars=True, tree_count=3,
        ),
        True,
        True,
    ),
}

records = pytest.mark.parametrize("name", RECORDS)


def _build(name, **changes):
    values = {**RECORDS[name][0], **changes}
    return getattr(nh, name)(**values)


def _same(a, b):
    """Equal types and values: records field by field, arrays by dtype and entries."""
    if type(a) is not type(b):
        return False
    if type(a).__name__ in RECORDS:
        return all(_same(getattr(a, f), getattr(b, f)) for f in RECORDS[type(a).__name__][0])
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@records
def test_positional_and_keyword_construction_agree(name):
    values = RECORDS[name][0]
    cls = getattr(nh, name)
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    assert _same(by_keyword, by_position)
    for field, value in values.items():
        assert _same(getattr(by_keyword, field), value), field
    assert cls.__match_args__ == tuple(values)


@records
def test_every_field_is_required(name):
    values = RECORDS[name][0]
    cls = getattr(nh, name)
    *head, last = values
    with pytest.raises(TypeError, match=repr(last)):
        cls(**{field: values[field] for field in head})
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError, match="no_such_field"):
        cls(**values, no_such_field=None)


@records
def test_signature_lists_the_fields(name):
    params = list(inspect.signature(getattr(nh, name)).parameters.values())
    assert [p.name for p in params] == list(RECORDS[name][0])
    for p in params:
        assert p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty, p.name
        assert p.annotation is not p.empty and p.annotation, p.name


@records
def test_a_field_given_twice_raises(name):
    first, value = next(iter(RECORDS[name][0].items()))
    with pytest.raises(TypeError, match=repr(first)):
        getattr(nh, name)(value, **{first: value})


@records
def test_assignment_and_deletion_raise(name):
    record = _build(name)
    for field in (*RECORDS[name][0], "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert _same(record, _build(name))


@records
def test_equality_and_hash(name):
    values, by_value, hashable = RECORDS[name]
    a, b = _build(name), _build(name)
    assert a == a and not a != a
    assert a != tuple(values.values())
    if by_value:
        assert a == b and not a != b
        first, value = next(iter(values.items()))
        other = value + 1 if isinstance(value, int) else value * 2
        assert a != _build(name, **{first: other})
    else:
        assert a != b and a is not b
    if not hashable:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    elif by_value:
        assert hash(a) == hash(b)
    else:
        assert len({a, b}) == 2


@records
def test_repr_lists_the_fields(name):
    record = _build(name)
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in RECORDS[name][0])
    assert repr(record) == f"{name}({fields})"


@records
def test_pickle_round_trip(name):
    record = _build(name)
    copy = pickle.loads(pickle.dumps(record))
    assert _same(record, copy)
    if RECORDS[name][1]:
        assert copy == record
    with pytest.raises(AttributeError):
        copy.no_such_field = None


def test_pickled_graph_keeps_its_ids():
    g = nh.load_edge_list("10 20\n20 30\n")
    assert g.__dict__["labels"] is None  # the vectorized load kept its id text only
    copy = pickle.loads(pickle.dumps(g))
    assert copy.labels == ("10", "20", "30") and copy.index == {"10": 0, "20": 1, "30": 2}
    assert copy._id_text == b"10\n20\n30\n"


def test_pickled_distribution_keeps_its_support():
    d = _build("ExactDistribution")
    copy = pickle.loads(pickle.dumps(d))
    assert copy.support == d.support == {(1, 0): Fraction(2, 3), (0, 0): Fraction(1, 3)}


@pytest.mark.parametrize(
    "sizes,message",
    [
        ((), "at least one class"),
        ((2, 0), ">= 1"),
        ((2, -1), ">= 1"),
        ((2, 1.0), "class size 1.0 is not an integer"),
        (("2",), "class size '2' is not an integer"),
    ],
)
def test_profile_rejects(sizes, message):
    with pytest.raises(ValueError, match=message):
        nh.Profile(sizes)


def test_profile_keeps_python_ints():
    p = nh.Profile(np.array([3, 1]))
    assert p.sizes == (3, 1) and all(type(c) is int for c in p.sizes)
    assert nh.Profile([3, 1]) == p and hash(nh.Profile([3, 1])) == hash(p)


@pytest.mark.parametrize(
    "w",
    [[1.0, -0.5], [0.0, 0.0], [1.0, np.nan], [1.0, np.inf]],
    ids=["negative", "zero", "nan", "inf"],
)
def test_weight_vector_rejects(w):
    with pytest.raises(ValueError, match="finite, nonnegative and not all zero"):
        nh.WeightVector(np.array(w))


def test_weight_vector_keeps_a_read_only_float_copy():
    given = np.array([1, 2])
    w = nh.WeightVector(given)
    assert w.w.dtype == np.float64 and not w.w.flags.writeable
    given[0] = 5  # the caller's array stays writable and is not shared
    assert w.w.tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "other,equal",
    [([1.0, 2.0, 3.0], True), ([1, 2, 3], True), ([1.0, 2.0, 4.0], False), ([1.0, 2.0], False),
     ([1.0, 2.0, 3.0, 0.0], False)],
    ids=["equal", "equal-from-ints", "different-entries", "shorter", "longer"],
)
def test_weight_vectors_compare_by_shape_and_entries(other, equal):
    a = nh.WeightVector(np.array([1.0, 2.0, 3.0]))
    b = nh.WeightVector(np.array(other))
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is not equal and (b != a) is not equal
    with pytest.raises(TypeError, match="unhashable"):
        hash(b)


def test_nan_fields_compare_unequal():
    edgeless = nh.Graph.from_edges(2, [])
    a, b = nh.summarize(edgeless), nh.summarize(edgeless)
    assert np.isnan(a.upsilon) and a.upsilon is not b.upsilon
    assert a != b and a == a


@pytest.mark.parametrize(
    "name,fields",
    [
        ("Graph", ("edges_u", "edges_v", "degrees")),
        ("Coloring", ("assignment",)),
        ("MomentSummary", ("slot",)),
    ],
)
def test_arrays_are_made_read_only(name, fields):
    record = _build(name)
    for field in fields:
        with pytest.raises(ValueError, match="read-only"):
            getattr(record, field)[0] = 1
