"""Integer ``TruthTable.compose`` against the object-level reference.

``reference_compose`` is the per-literal ``TruthTable`` algebra that
``compose`` used before it moved to packed integers; both must agree on
every table and substitution list, and raise the same errors.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.functions import TruthTable


def reference_compose(table, substitutions):
    """Sum of minterms, each an AND of (possibly negated) substitutions."""
    n = table.n_inputs
    if len(substitutions) != n:
        raise ValueError(
            f"expected {n} substitutions, got {len(substitutions)}"
        )
    if n == 0:
        raise ValueError("cannot compose a 0-input function")
    m = substitutions[0].n_inputs
    for sub in substitutions:
        if sub.n_inputs != m:
            raise ValueError("substitutions must share one arity")
    result = TruthTable.const(m, False)
    for row in range(1 << n):
        if not table.bits >> row & 1:
            continue
        term = TruthTable.const(m, True)
        for k in range(n):
            sub = substitutions[k]
            term = term & (sub if row >> k & 1 else ~sub)
            if term.bits == 0:
                break
        result = result | term
    return result


def tables(arity: int):
    top = (1 << (1 << arity)) - 1
    return st.integers(0, top).map(lambda bits: TruthTable(arity, bits))


@st.composite
def compositions(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 6))
    table = draw(tables(n))
    subs = draw(st.lists(tables(m), min_size=n, max_size=n))
    return table, subs


@given(compositions())
@settings(max_examples=300, deadline=None)
def test_int_compose_matches_reference(case):
    table, subs = case
    assert table.compose(subs) == reference_compose(table, subs)


@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_projection_substitutions_match_reference(n, m, data):
    # The mapper's _rebase case: every substitution is a projection.
    table = data.draw(tables(n))
    index = st.integers(0, m - 1)
    subs = [TruthTable.var(m, data.draw(index)) for _ in range(n)]
    assert table.compose(subs) == reference_compose(table, subs)


@pytest.mark.parametrize(
    "table, subs, message",
    [
        (TruthTable.xor(2), [TruthTable.var(1, 0)], "expected 2"),
        (
            TruthTable.and_(2),
            [TruthTable.var(1, 0), TruthTable.var(2, 0)],
            "share one arity",
        ),
        (TruthTable.const(0, True), [], "0-input"),
    ],
)
def test_errors_match_reference(table, subs, message):
    with pytest.raises(ValueError, match=message):
        table.compose(subs)
    with pytest.raises(ValueError, match=message):
        reference_compose(table, subs)
