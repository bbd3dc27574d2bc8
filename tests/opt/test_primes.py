"""Bit-parallel ``prime_implicants`` against Quine-McCluskey merging.

``reference_primes`` is the pair-merging generator the minimizer used
before; both must return the same sorted prime list for every function.
"""

from hypothesis import given, settings, strategies as st

from repro.netlist.functions import TruthTable, all_functions
from repro.opt.simplify import _QM_LIMIT, _cube_string, prime_implicants


def reference_primes(table):
    """Quine-McCluskey merging on integer cubes grouped by (specified
    mask, ones count), as the minimizer ran it before."""
    n = table.n_inputs
    full = (1 << n) - 1
    current = {(full, row) for row in table.minterms()}
    primes = set()
    while current:
        merged = set()
        used = set()
        groups = {}
        for spec, value in current:
            key = (spec, bin(value).count("1"))
            groups.setdefault(key, []).append((spec, value))
        for (spec, ones), group in groups.items():
            uppers = groups.get((spec, ones + 1), ())
            for cube in group:
                for upper in uppers:
                    difference = cube[1] ^ upper[1]
                    if difference & (difference - 1):
                        continue
                    merged.add((spec & ~difference, cube[1] & ~difference))
                    used.add(cube)
                    used.add(upper)
        primes.update(current - used)
        current = merged
    return sorted(_cube_string(n, spec, value) for spec, value in primes)


random_tables = st.integers(4, _QM_LIMIT).flatmap(
    lambda n: st.randoms(use_true_random=False).map(
        lambda rng: TruthTable(n, rng.getrandbits(1 << n))
    )
)


def test_every_function_up_to_three_inputs():
    for n in range(4):
        for table in all_functions(n):
            assert prime_implicants(table) == reference_primes(table)


@given(random_tables)
@settings(max_examples=60, deadline=None)
def test_random_functions_match_reference(table):
    assert prime_implicants(table) == reference_primes(table)


@given(st.integers(4, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_and_dense_functions_match_reference(n, data):
    # Few on-rows (or few off-rows) give long merge chains and wide cubes.
    rows = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=6))
    bits = sum(1 << row for row in rows)
    if data.draw(st.booleans()):
        bits ^= (1 << (1 << n)) - 1
    table = TruthTable(n, bits)
    assert prime_implicants(table) == reference_primes(table)
