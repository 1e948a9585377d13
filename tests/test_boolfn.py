import itertools
import math

import numpy as np
import pytest

from djsim import (
    Decomposition,
    Promise,
    Verdict,
    classify_theorem1,
    classify_theorem2,
    classify_theorem3,
    compute_stats,
    corollary_witness,
    count_promise_functions,
    enumerate_promise_functions,
    make_function,
    random_balanced_table,
)
from djsim.boolfn import packed_promise_range


def value(d, w, u):
    """f_w(u) = f(uw), read from the base table by the package's index convention."""
    return d.base.table[(u << d.t) | w]


def family(n):
    """The whole promise family of arity n, packed."""
    return packed_promise_range(n, 0, count_promise_functions(n))


class TestMakeFunction:
    def test_constant_detection(self):
        assert make_function(1, [0, 0]).promise is Promise.CONSTANT
        assert make_function(2, [1, 1, 1, 1]).promise is Promise.CONSTANT

    def test_balanced_detection(self):
        assert make_function(1, [0, 1]).promise is Promise.BALANCED

    def test_unknown_detection(self):
        assert make_function(2, [0, 0, 1, 0]).promise is Promise.UNKNOWN

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_function(2, [0, 1, 0])

    def test_non_bit_entries_rejected(self):
        with pytest.raises(ValueError):
            make_function(1, [0, 2])
        for table in (bytes([0, 1, 1, 255]), bytes([2, 1, 0, 0]), bytes([1, 1, 1, 3])):
            with pytest.raises(ValueError, match="0 or 1"):
                make_function(2, table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12])
    def test_digest_and_popcount_read_the_table(self, n):
        rng = np.random.default_rng(n)
        for table in (bytes(1 << n), bytes([1]) * (1 << n), (rng.random(1 << n) < 0.4).astype(np.uint8).tobytes()):
            f = make_function(n, table)
            assert f.digest() == f"{n}:{int(''.join(map(str, table)), 2):0{((1 << n) + 3) // 4}x}"
            assert f.popcount == sum(table)

    def test_string_table_accepted(self):
        f = make_function(2, "0110")
        assert f.table == bytes([0, 1, 1, 0])
        table = (np.random.default_rng(3).random(1 << 10) < 0.5).astype(np.uint8)
        assert make_function(10, "".join(map(str, table))).table == table.tobytes()

    @pytest.mark.parametrize("char", ["2", "a", " ", "\x00", "\x01", "\u0661", "\u00e9"])
    def test_non_bit_characters_rejected(self, char):
        with pytest.raises(ValueError, match="0 or 1"):
            make_function(2, "01" + char + "0")

    def test_digest_roundtrip(self):
        f = make_function(2, [0, 0, 1, 0])
        assert f.digest() == "2:2"


class TestDecomposition:
    def test_subfunction_indexing(self, two_node_example):
        d = Decomposition(two_node_example, 1)
        assert d.sub_table(0) == bytes([1, 0, 0, 1])
        assert d.sub_table(1) == bytes([0, 0, 1, 1])

    def test_value_matches_base_table(self, delta_example):
        d = Decomposition(delta_example, 2)
        for u in range(4):
            for w in range(4):
                assert d.sub_table(w)[u] == delta_example.table[(u << 2) | w]

    def test_split_bounds(self, two_node_example):
        with pytest.raises(ValueError):
            Decomposition(two_node_example, 0)
        with pytest.raises(ValueError):
            Decomposition(two_node_example, 3)


class TestEnumeration:
    @pytest.mark.parametrize("n,total", [(2, 8), (3, 72), (4, 12872)])
    def test_counts(self, n, total):
        assert count_promise_functions(n) == total
        assert sum(1 for _ in enumerate_promise_functions(n)) == total

    def test_order_constants_then_ascending_tables(self):
        seen = [f.table for f in enumerate_promise_functions(2)]
        assert seen[0] == bytes(4)
        assert seen[1] == bytes([1, 1, 1, 1])
        values = [int("".join(map(str, t)), 2) for t in seen[2:]]
        assert values == [3, 5, 6, 9, 10, 12]

    def test_each_function_once_with_correct_promise(self):
        seen = set()
        for f in enumerate_promise_functions(3):
            assert f.table not in seen
            seen.add(f.table)
            assert f.promise in (Promise.CONSTANT, Promise.BALANCED)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="random_balanced_table"):
            next(enumerate_promise_functions(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_family_matches_an_itertools_reference(self, n):
        # The constants, then every choice of 2^(n-1) ones, ascending as big-endian integers.
        size = 1 << n
        ones = itertools.combinations(range(size), size // 2)
        expected = [0, (1 << size) - 1] + sorted(sum(1 << (size - 1 - x) for x in chosen) for chosen in ones)
        assert family(n).tolist() == expected
        functions = list(enumerate_promise_functions(n))
        assert [int("".join(map(str, f.table)), 2) for f in functions] == expected
        assert [f.promise for f in functions] == [Promise.CONSTANT] * 2 + [Promise.BALANCED] * (len(expected) - 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_range_is_its_slice_of_the_family(self, n):
        tables = family(n).tolist()
        total = len(tables)
        rng = np.random.default_rng(n)
        cuts = [(a, a + 1) for a in range(total)] + [tuple(sorted(rng.integers(0, total + 1, 2))) for _ in range(200)]
        for start, stop in cuts + [(0, total), (0, 2), (2, total), (total, total)]:
            assert packed_promise_range(n, start, stop).tolist() == tables[start:stop]

    def test_ranges_at_n5_are_the_ranked_tables(self):
        # Balanced table j is the j-th 32-bit integer with 16 ones, ascending:
        # unranked bit by bit from the top, independently of the enumeration.
        def unrank(j):
            value, ones = 0, 16
            for bit in range(31, -1, -1):
                below = math.comb(bit, ones)  # tables with this bit clear
                if j >= below:
                    j -= below
                    value |= 1 << bit
                    ones -= 1
            return value

        total = count_promise_functions(5)
        rng = np.random.default_rng(5)
        starts = [0, 2, total - 3000] + rng.integers(2, total - 3000, 20).tolist()
        for start in starts:
            got = packed_promise_range(5, start, start + 3000).tolist()
            constants = [0, (1 << 32) - 1][start:]
            assert got[: len(constants)] == constants
            assert got[len(constants) :] == [unrank(j - 2) for j in range(start + len(constants), start + 3000)]
        assert packed_promise_range(5, total - 1, total + 5).tolist() == [((1 << 16) - 1) << 16]

    def test_ranges_past_enumeration_rejected(self):
        with pytest.raises(ValueError, match="random_balanced_table"):
            packed_promise_range(6, 0, 1)


class TestStats:
    def test_two_node_counters(self, two_node_example):
        stats = compute_stats(Decomposition(two_node_example, 1))
        assert (stats.b00, stats.b11, stats.m) == (1, 1, 2)

    def test_delta_values(self, delta_example):
        stats = compute_stats(Decomposition(delta_example, 2))
        assert stats.delta == (0, -2, 2, 0)
        assert stats.delta_sum == 0

    def test_pair_delta_values(self, pair_example):
        stats = compute_stats(Decomposition(pair_example, 2))
        assert stats.big_delta == (0, -1, 1, 0)
        assert stats.big_delta_sum == 0

    def test_delta_formula_equals_direct_count(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            t = int(rng.integers(1, n))
            table = rng.integers(0, 2, size=1 << n)
            f = make_function(n, table.tolist())
            d = Decomposition(f, t)
            stats = compute_stats(d)
            for u in range(1 << (n - t)):
                values = [value(d, w, u) for w in range(1 << t)]
                direct = values.count(0) - values.count(1)
                assert stats.delta[u] == direct == (1 << t) - 2 * sum(values)

    def test_big_delta_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            t = int(rng.integers(1, n))
            f = make_function(n, rng.integers(0, 2, size=1 << n).tolist())
            stats = compute_stats(Decomposition(f, t))
            half = 1 << (t - 1)
            for u in range(1 << (n - t)):
                assert stats.big_delta[u] == stats.e00[u] - stats.e11[u]
                assert stats.big_delta[u] == half - stats.k[u] - 2 * stats.e11[u]
                assert stats.big_delta[u] == -half + stats.k[u] + 2 * stats.e00[u]
                assert stats.k[u] == stats.e01[u] + stats.e10[u]
                assert -half <= stats.big_delta[u] <= half

    def test_d_total_and_m_bounds(self):
        for f in enumerate_promise_functions(3):
            stats = compute_stats(Decomposition(f, 1))
            assert stats.m == stats.b00 + stats.b11
            assert 0 <= stats.m <= 4
            assert stats.d_total == sum(stats.e00) + sum(stats.e11)

    def test_counters_absent_beyond_two_nodes(self, delta_example):
        stats = compute_stats(Decomposition(delta_example, 2))
        assert stats.b00 is None and stats.m is None


class TestClassifiers:
    def test_theorem1_worked_example(self, two_node_example):
        stats = compute_stats(Decomposition(two_node_example, 1))
        assert classify_theorem1(stats) is Verdict.BALANCED

    def test_theorem1_all_ones(self):
        f = make_function(3, [1] * 8)
        stats = compute_stats(Decomposition(f, 1))
        assert (stats.c01, stats.c11) == (4, 4)
        assert classify_theorem1(stats) is Verdict.CONSTANT

    def test_theorem1_promise_violation(self):
        stats = compute_stats(Decomposition(make_function(2, [0, 0, 1, 0]), 1))
        assert classify_theorem1(stats) is Verdict.PROMISE_VIOLATED

    def test_theorem1_requires_two_nodes(self, delta_example):
        with pytest.raises(ValueError):
            classify_theorem1(compute_stats(Decomposition(delta_example, 2)))

    def test_theorem2_worked_example(self, delta_example):
        assert classify_theorem2(compute_stats(Decomposition(delta_example, 2))) is Verdict.BALANCED

    def test_theorem2_all_zeros(self):
        for n, t in [(3, 1), (4, 2), (4, 3)]:
            stats = compute_stats(Decomposition(make_function(n, [0] * (1 << n)), t))
            assert stats.delta == tuple([1 << t] * (1 << (n - t)))
            assert classify_theorem2(stats) is Verdict.CONSTANT

    def test_theorem3_worked_example(self, pair_example):
        assert classify_theorem3(compute_stats(Decomposition(pair_example, 2))) is Verdict.BALANCED

    def test_theorem3_all_ones(self):
        stats = compute_stats(Decomposition(make_function(4, [1] * 16), 2))
        assert stats.big_delta == (-2, -2, -2, -2)
        assert classify_theorem3(stats) is Verdict.CONSTANT

    @pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_theorems_match_promise_exhaustively(self, n, t):
        for f in enumerate_promise_functions(n):
            stats = compute_stats(Decomposition(f, t))
            assert classify_theorem2(stats).value == f.promise.value
            assert classify_theorem3(stats).value == f.promise.value
            if t == 1:
                v1 = classify_theorem1(stats)
                assert v1.value == f.promise.value
                assert v1 is classify_theorem2(stats)


class TestWitness:
    def test_smallest_witness_on_delta_example(self, delta_example):
        # delta(0) = 0 already violates |delta| = 2^t, so the smallest witness is u=0.
        d = Decomposition(delta_example, 2)
        stats = compute_stats(d)
        brute = next(u for u in range(4) if abs(stats.delta[u]) != 4 or abs(stats.big_delta[u]) != 2)
        assert corollary_witness(d) == brute == 0

    def test_constant_functions_have_no_witness(self):
        for bit in (0, 1):
            f = make_function(4, [bit] * 16)
            for t in (1, 2, 3):
                assert corollary_witness(Decomposition(f, t)) is None

    def test_balanced_two_node_witness_iff_subfunctions_differ(self):
        for f in enumerate_promise_functions(3):
            if f.promise is not Promise.BALANCED:
                continue
            d = Decomposition(f, 1)
            differs = any(value(d, 0, u) != value(d, 1, u) for u in range(4))
            witness = corollary_witness(d)
            assert (witness is not None) == differs
            if witness is not None:
                assert all(value(d, 0, u) == value(d, 1, u) for u in range(witness))

    def test_witness_absent_iff_every_subrow_constant(self):
        # Balanced functions whose subrows are each all-equal legitimately
        # have no witness; the conditions are sufficient, not necessary.
        for f in enumerate_promise_functions(4):
            d = Decomposition(f, 2)
            stats = compute_stats(d)
            absent = all(abs(v) == 4 for v in stats.delta)
            assert (corollary_witness(d) is None) == absent


def test_random_balanced_table_is_balanced():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_balanced_table(4, rng)
        assert f.promise is Promise.BALANCED


def test_random_balanced_table_sets_the_drawn_positions():
    # The same draws give the same table: the positions of one choice()
    # without replacement, pinned at n=6 by the function id.
    for n, seed in ((6, 7), (10, 7), (13, 2)):
        ones = np.random.default_rng(seed).choice(1 << n, size=1 << (n - 1), replace=False)
        want = bytearray(1 << n)
        for i in ones:
            want[i] = 1
        assert random_balanced_table(n, np.random.default_rng(seed)).table == bytes(want)
    assert random_balanced_table(6, np.random.default_rng(7)).digest() == "6:a24ba5a59b7268ae"


def test_enumeration_matches_binomial_for_n1():
    fns = list(enumerate_promise_functions(1))
    assert len(fns) == 2 + math.comb(2, 1)
