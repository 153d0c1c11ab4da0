"""Algebraic properties of reducers and delta aggregation.

The summary-delta method rests on distributivity: folding a partition of
the input and then folding the partial results must equal folding the whole
input.  These properties are what make pre-aggregation (§4.1.3) and
delta-from-delta computation (§5.4) sound, so we check them directly.
"""

from hypothesis import given, settings, strategies as st

from repro.relational import (
    CountNonNullReducer,
    CountRowsReducer,
    MaxReducer,
    MinReducer,
    SumReducer,
)

values = st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=40)
splits = st.integers(0, 40)

REDUCERS = [
    ("sum", SumReducer, SumReducer),
    ("count_rows", CountRowsReducer, SumReducer),
    ("count_non_null", CountNonNullReducer, SumReducer),
    ("min", MinReducer, MinReducer),
    ("max", MaxReducer, MaxReducer),
]


def fold(reducer, items):
    state = reducer.create()
    for item in items:
        state = reducer.step(state, item)
    return reducer.finalize(state)


@settings(max_examples=200, deadline=None)
@given(data=values, split=splits)
def test_distributivity_partition_then_combine(data, split):
    """fold(xs) == combine(fold(xs[:k]), fold(xs[k:])) for every reducer and
    its combining reducer (COUNT combines by SUM, the paper's rewrite)."""
    cut = min(split, len(data))
    left, right = data[:cut], data[cut:]
    for name, reducer_type, combiner_type in REDUCERS:
        whole = fold(reducer_type(), data)
        parts = [fold(reducer_type(), left), fold(reducer_type(), right)]
        combined = fold(combiner_type(), parts)
        assert combined == whole, name


@settings(max_examples=200, deadline=None)
@given(data=values)
def test_order_insensitivity(data):
    """Folding in reverse order gives the same result (hash-group order
    must not matter)."""
    for name, reducer_type, _comb in REDUCERS:
        assert fold(reducer_type(), data) == fold(reducer_type(), list(reversed(data))), name


@settings(max_examples=200, deadline=None)
@given(data=values)
def test_nulls_never_contribute(data):
    """Nulls are invisible to every reducer except COUNT(*)."""
    non_null = [value for value in data if value is not None]
    assert fold(SumReducer(), data) == fold(SumReducer(), non_null)
    assert fold(MinReducer(), data) == fold(MinReducer(), non_null)
    assert fold(MaxReducer(), data) == fold(MaxReducer(), non_null)
    assert fold(CountNonNullReducer(), data) == len(non_null)
    assert fold(CountRowsReducer(), data) == len(data)


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
def test_sum_of_signed_pairs_cancels(data):
    """A value inserted and deleted (Table 1's ±expr) contributes zero."""
    signed = [value for v in data for value in (v, -v)]
    assert fold(SumReducer(), signed) == 0


@settings(max_examples=200, deadline=None)
@given(data=values, split=splits)
def test_merge_is_the_distributivity_witness(data, split):
    """reducer.merge(fold(left), fold(right)) == fold(whole), for every
    reducer — the property merge_summary_deltas relies on."""
    cut = min(split, len(data))
    left, right = data[:cut], data[cut:]
    for name, reducer_type, _combiner in REDUCERS:
        reducer = reducer_type()
        merged = reducer.merge(fold(reducer, left), fold(reducer, right))
        assert reducer.finalize(merged) == fold(reducer, data), name


@settings(max_examples=100, deadline=None)
@given(data=values)
def test_merge_with_initial_state_is_identity(data):
    """Merging with a fresh (empty) state changes nothing."""
    for name, reducer_type, _combiner in REDUCERS:
        reducer = reducer_type()
        state = fold(reducer, data)
        assert reducer.merge(state, reducer.create()) == state, name
        assert reducer.merge(reducer.create(), state) == state, name
