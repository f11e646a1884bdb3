"""Counting engines, their agreement, and the counting identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import (
    brute_count,
    convolution_check_range,
    count_dp,
    enumerate_partitions,
    eq4_rhs_direct,
)
from partlab import counting
from partlab.counting import (
    CountTable,
    IntegrityError,
    TableFactory,
    certify,
    count_bruteforce,
    recurrence_holds,
)
from partlab.partset import A_PLUS, FULL_A, R_PLUS, SpecError, make_residue_spec, parts_up_to
from partlab.sweeps import subsets_for_modulus
from test_partset import spec_strategy


class TestCountDP:
    """The coin-change definition's known values, pinned on the factory
    (which shares the definition's kernel) and certified by identity (4)
    (which shares nothing with it)."""

    def test_unrestricted_small(self):
        expected = (1, 1, 2, 3, 5, 7)
        assert TableFactory(5).table(make_residue_spec(1, [0]), FULL_A).values == expected
        assert recurrence_holds(expected, [1, 2, 3, 4, 5])

    def test_tail_of_odd_parts(self):
        # m=2, R={1}: tail parts up to 5 are [3, 5]; only 5 itself works
        spec = make_residue_spec(2, [1])
        assert TableFactory(5).table(spec, A_PLUS).values == (1, 0, 0, 1, 0, 1)
        assert recurrence_holds((1, 0, 0, 1, 0, 1), [3, 5])

    def test_empty_parts(self):
        # R={} has no parts at all; R={0} has no head part
        assert TableFactory(3).table(make_residue_spec(4, []), A_PLUS).values == (1, 0, 0, 0)
        assert TableFactory(3).table(make_residue_spec(5, [0]), R_PLUS).values == (1, 0, 0, 0)
        assert recurrence_holds((1, 0, 0, 0), [])

    def test_rejects_bad_parts(self):
        # the walk and the identity take a part list through the one shared validator
        for bad in ([2, 2], [3, 1], [0, 1]):
            with pytest.raises(ValueError):
                count_bruteforce(bad, 5)
            with pytest.raises(ValueError):
                recurrence_holds((1,) * 6, bad)


def _holds_level_by_level(values, parts):
    """The verdict of ``recurrence_holds`` from the literal identity, one level at a time."""
    return values[0] == 1 and all(
        eq4_rhs_direct(parts, values, j) == j * values[j] for j in range(len(values))
    )


class TestCountRecurrence:
    """Identity (4) as a certificate: ``recurrence_holds`` checks every level at once."""

    def test_matches_dp_small(self):
        values = count_dp(range(1, 6), 5)
        assert values[5] == 7
        assert recurrence_holds(values, range(1, 6))
        assert 5 * 7 == eq4_rhs_direct(range(1, 6), values, 5)

    def test_single_even_part(self):
        assert recurrence_holds((1, 0, 1, 0, 1, 0), [2])
        assert recurrence_holds((1, 0, 1, 0, 1, 0, 1), [2])
        assert not recurrence_holds((1, 0, 1, 0, 1, 1), [2])
        assert not recurrence_holds((1, 0, 1, 0, 1, 0, 0), [2])

    def test_known_value_p100(self):
        values = count_dp(range(1, 101), 100)
        assert values[100] == 190569292
        assert recurrence_holds(values, range(1, 101))

    def test_corrupted_divisor_sums_fail(self, monkeypatch):
        """A wrong sigma makes the identity fail on a correct table."""
        real = counting._divisor_sums
        values = count_dp(range(1, 11), 10)
        assert recurrence_holds(values, range(1, 11))

        def corrupted(parts, n):
            sigma = real(parts, n)
            sigma[2] += 1
            return sigma

        monkeypatch.setattr(counting, "_divisor_sums", corrupted)
        assert not recurrence_holds(values, range(1, 11))

    @given(
        parts=st.lists(st.integers(1, 300), max_size=12, unique=True),
        n=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dp_on_arbitrary_parts(self, parts, n):
        parts = sorted(parts)
        values = count_dp(parts, n)
        assert recurrence_holds(values, parts)
        assert _holds_level_by_level(values, parts)

    @given(
        parts=st.lists(st.integers(1, 300), max_size=12, unique=True),
        n=st.integers(1, 300),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_wrong_level_fails(self, parts, n, data):
        """One level moved by +-1 or by +-2**k past the slot width fails, as level by level."""
        parts = sorted(parts)
        values = count_dp(parts, n)
        sigma = counting._divisor_sums(tuple(parts), n)
        width_bits = 8 * (((n + 1) * max(*sigma, 1) * max(values)).bit_length() // 8 + 1)
        k = data.draw(st.integers(width_bits + 1, width_bits + 80), label="k")
        delta = data.draw(st.sampled_from([1, -1, 2**k, -(2**k)]), label="delta")
        level = data.draw(st.integers(1, n), label="level")
        wrong = values[:level] + (values[level] + delta,) + values[level + 1 :]
        assert not recurrence_holds(wrong, parts)
        assert not _holds_level_by_level(wrong, parts)

    def test_edge_cases(self):
        assert recurrence_holds((1,), [])
        assert recurrence_holds((1,), [1, 2])
        assert not recurrence_holds((), [1])
        for first in (0, 2):
            assert not recurrence_holds((first,), [1])
            assert not recurrence_holds((first, 1, 2), [1, 2])
        # no part: only the empty partition, so every level above 0 is 0
        assert recurrence_holds((1, 0, 0, 0), [])
        assert not recurrence_holds((1, 0, 5, 0), [])
        # a negative entry is refused, not packed
        assert not recurrence_holds((1, -1, 2), [1])
        assert not recurrence_holds((1, 1, 2, 3, -5), [1, 2])


class TestCountBruteforce:
    def test_small_cases(self):
        assert count_bruteforce([1, 2, 3, 4], 4)[4] == 5
        assert count_bruteforce([5], 4)[4] == 0
        assert count_bruteforce([3, 7], 0)[0] == 1

    def test_ceiling_enforced(self):
        with pytest.raises(ValueError):
            count_bruteforce([1], 61)
        assert count_bruteforce([1], 60)[60] == 1

    @pytest.mark.parametrize("parts", [[2, 3, 5, 7], [4, 9], [3], [2, 5, 6]])
    def test_parts_without_one(self, parts):
        # the smallest part's runs are added by one pass after the walk
        values = count_bruteforce(parts, 40)
        assert values == count_dp(parts, 40)
        assert values == tuple(brute_count(parts, k) for k in range(41))

    def test_n_below_the_smallest_part(self):
        assert count_bruteforce([4, 9], 3) == (1, 0, 0, 0)
        assert count_bruteforce([5], 4) == (1, 0, 0, 0, 0)

    def test_no_parts(self):
        assert count_bruteforce([], 0) == (1,)
        assert count_bruteforce([], 7) == (1,) + (0,) * 7

    def test_n_zero(self):
        assert count_bruteforce([1], 0) == (1,)
        assert count_bruteforce([2, 3, 5], 0) == (1,)

    @pytest.mark.parametrize(
        "parts",
        [
            list(range(1, 61, 2)),  # m = 2, R = {1}: the odd parts
            [p for p in range(1, 61) if p % 4 in (2, 3)],  # m = 4, R = {2, 3}
        ],
    )
    def test_up_to_the_ceiling(self, parts):
        assert count_bruteforce(parts, 60) == count_dp(parts, 60)

    @given(
        parts=st.sets(st.integers(1, 30), max_size=8),
        n=st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_walk_gives_the_whole_table(self, parts, n):
        parts = sorted(parts)
        values = count_bruteforce(parts, n)
        assert values == count_dp(parts, n)
        assert values == tuple(brute_count(parts, k) for k in range(n + 1))


@given(spec=spec_strategy(m_max=5), n=st.integers(0, 18))
@settings(max_examples=60, deadline=None)
def test_three_engines_agree(spec, n):
    """DP, identity (4), the walk and enumeration are independent; they must agree."""
    for variant in (FULL_A, A_PLUS, R_PLUS):
        parts = parts_up_to(spec, variant, n)
        dp = count_dp(parts, n)
        assert recurrence_holds(dp, parts)
        assert dp[n] == count_bruteforce(parts, n)[n]
        assert dp[n] == brute_count(parts, n)


@given(spec=spec_strategy(m_max=6), n=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_count_sandwich(spec, n):
    """Part-set inclusion: tail counts <= full counts <= unrestricted counts."""
    tail = count_dp(parts_up_to(spec, A_PLUS, n), n)[n]
    full = count_dp(parts_up_to(spec, FULL_A, n), n)[n]
    unrestricted = count_dp(range(1, n + 1), n)[n]
    assert tail <= full <= unrestricted


@given(
    extra=st.lists(st.integers(2, 30), max_size=6, unique=True),
    n=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_monotone_when_one_available(extra, n):
    """With part 1 available, counts never decrease in n."""
    parts = sorted({1, *extra})
    values = count_dp(parts, n)
    assert all(values[j] <= values[j + 1] for j in range(n))


class TestEq4:
    def test_direct_matches_all_levels(self):
        values = count_dp(range(1, 31), 30)
        for n in range(31):
            assert eq4_rhs_direct(range(1, 31), values, n) == n * values[n]

    def test_recurrence_matches_dp_restricted(self):
        spec = make_residue_spec(3, [1, 2])
        for variant in (FULL_A, A_PLUS, R_PLUS):
            parts = parts_up_to(spec, variant, 120)
            assert recurrence_holds(count_dp(parts, 120), parts)

    def test_recurrence_integrity_message(self):
        # A corrupted table must trip the direct identity, not pass silently.
        values = count_dp(range(1, 11), 10)
        bad = values[:10] + (values[10] + 1,)
        assert eq4_rhs_direct(range(1, 11), bad, 10) != 10 * bad[10]
        assert not recurrence_holds(bad, range(1, 11))


class TestConvolution:
    def test_odd_parts_example(self):
        spec = make_residue_spec(2, [1])
        report = convolution_check_range(spec, 5)[5]
        assert (report.n, report.lhs, report.rhs, report.holds) == (5, 3, 3, True)

    def test_classical_degenerates(self):
        # m=1, R={0}: the head set is empty, so the sum collapses to p(7)
        spec = make_residue_spec(1, [0])
        report = convolution_check_range(spec, 7)[7]
        assert report.lhs == report.rhs == 15

    def test_n_zero(self):
        (report,) = convolution_check_range(make_residue_spec(5, [2, 3]), 0)
        assert report.n == 0
        assert report.lhs == report.rhs == 1

    @given(spec=spec_strategy(m_max=5), n_max=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_range_holds(self, spec, n_max):
        assert all(r.holds for r in convolution_check_range(spec, n_max))


@pytest.fixture
def builds(monkeypatch):
    """The key of every ``TableFactory._build`` call, in call order."""
    made = []
    real_build = counting.TableFactory._build

    def recording_build(self, m, residues, variant):
        made.append((m, residues, variant))
        return real_build(self, m, residues, variant)

    monkeypatch.setattr(counting.TableFactory, "_build", recording_build)
    return made


class TestTableFactory:
    @given(spec=spec_strategy(m_max=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_count_dp(self, spec):
        n = 120
        factory = TableFactory(n)
        assert factory.table(spec, A_PLUS).values == count_dp(
            parts_up_to(spec, A_PLUS, n), n
        )
        assert factory.table(spec, FULL_A).values == count_dp(
            parts_up_to(spec, FULL_A, n), n
        )
        assert factory.table(spec, R_PLUS).values == count_dp(
            parts_up_to(spec, R_PLUS, n), n
        )

    def test_known_value(self):
        factory = TableFactory(100)
        spec = make_residue_spec(1, [0])
        assert factory.table(spec, FULL_A).values[100] == 190569292

    def test_empty_residues(self):
        factory = TableFactory(10)
        spec = make_residue_spec(4, [])
        assert factory.table(spec, A_PLUS).values == (1,) + (0,) * 10

    def test_table_knows_what_it_counts(self):
        spec = make_residue_spec(3, [0, 2])
        table = TableFactory(12).table(spec, FULL_A)
        assert (table.spec, table.variant, table.n_max) == (spec, FULL_A, 12)
        assert table.parts == (2, 3, 5, 6, 8, 9, 11, 12)
        assert TableFactory(12).table(spec, R_PLUS).parts == (2,)
        for other in (spec, make_residue_spec(3, []), make_residue_spec(3, [0])):
            with pytest.raises(SpecError):
                TableFactory(12).table(other, "all-naturals")

    def test_shared_cache_matches_count_dp(self):
        """Every subset of m <= 7, built in bitmask, reverse and shuffled order.

        Tail tables are cached and extended in place while being built, so
        a full-set table must not write through to a cached tail table, and no table
        may depend on which subsets were built before it.
        """
        n = 150
        specs = [spec for m in range(1, 8) for spec in subsets_for_modulus(m)]
        expected = {spec: _dp_tables(spec, n) for spec in specs}
        shuffled = list(specs)
        random.Random(6).shuffle(shuffled)
        for order in (specs, list(reversed(specs)), shuffled):
            factory = TableFactory(n)
            for spec in order:
                aplus, full, rplus = expected[spec]
                assert factory.table(spec, A_PLUS).values == aplus
                assert factory.table(spec, FULL_A).values == full
                assert factory.table(spec, R_PLUS).values == rplus
                assert factory.table(spec, A_PLUS).values == aplus
            for spec in specs:
                assert factory.table(spec, A_PLUS).values == expected[spec][0]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_n_max_up_to_m(self, m):
        """Tables shorter than the modulus: no tail part fits, the head may."""
        for n_max in range(m + 1):
            factory = TableFactory(n_max)
            for spec in subsets_for_modulus(m):
                assert (
                    factory.table(spec, A_PLUS).values,
                    factory.table(spec, FULL_A).values,
                    factory.table(spec, R_PLUS).values,
                ) == _dp_tables(spec, n_max)

    @pytest.mark.parametrize("residues", [range(6), [0, 1, 2, 4, 5]])
    def test_dense_residues_at_scale(self, residues):
        n = 2000
        spec = make_residue_spec(6, residues)
        factory = TableFactory(n)
        assert factory.table(spec, A_PLUS).values == count_dp(parts_up_to(spec, A_PLUS, n), n)
        assert factory.table(spec, FULL_A).values == count_dp(parts_up_to(spec, FULL_A, n), n)

    @pytest.mark.parametrize("m,wrong_at", [(1, 0), (4, 0), (4, 1), (4, 3), (7, 5)])
    def test_wrong_partition_numbers_raise(self, monkeypatch, m, wrong_at):
        """A p(n) table off below m leaves tail counts below m; it must not pass."""
        real = counting._partition_numbers

        def corrupted(n):
            values = real(n)
            values[wrong_at] += 1
            return values

        monkeypatch.setattr(counting, "_partition_numbers", corrupted)
        with pytest.raises(IntegrityError):
            TableFactory(40).table(make_residue_spec(m, range(m)), A_PLUS)

    def test_head_table_is_built_once_per_r_plus(self, builds):
        """R+ = {1} of m = 3 with and without 0, and of m = 4: one build, one tuple."""
        factory = TableFactory(30)
        heads = [
            factory.table(make_residue_spec(m, residues), R_PLUS).values
            for m, residues in ((3, [1]), (3, [0, 1]), (4, [1]))
        ]
        assert heads[0] is heads[1] is heads[2]
        assert heads[0] == count_dp([1], 30)
        assert len(builds) == 1

    def test_empty_residues_share_one_table(self, builds):
        """Every variant set of R = {} is empty: one build, one tuple, for every m."""
        factory = TableFactory(30)
        empty = [
            factory.table(make_residue_spec(m, []), variant).values
            for m in range(1, 5)
            for variant in (A_PLUS, FULL_A)
        ]
        empty.append(factory.table(make_residue_spec(3, []), R_PLUS).values)
        assert all(values is empty[0] for values in empty)
        assert empty[0] == (1,) + (0,) * 30
        assert len(builds) == 1

    @pytest.mark.parametrize("m", range(1, 5))
    def test_full_set_of_zero_is_its_tail_table(self, builds, m):
        """R = {0} has no head parts, so A = A+: one build, one tuple."""
        factory, spec = TableFactory(30), make_residue_spec(m, [0])
        factory.table(make_residue_spec(m, []), A_PLUS)  # the table the tail extends
        builds.clear()
        full = factory.table(spec, FULL_A).values
        assert full is factory.table(spec, A_PLUS).values
        assert full == count_dp(parts_up_to(spec, FULL_A, 30), 30)
        assert len(builds) == 1

    def test_partition_numbers_run_once_per_factory(self, monkeypatch):
        """Every residue's tail and full tables, m = 1..4, read one run of p(n)."""
        n = 60
        runs = []
        real = counting._partition_numbers

        def recording(n_max):
            runs.append(n_max)
            return real(n_max)

        monkeypatch.setattr(counting, "_partition_numbers", recording)
        factory = TableFactory(n)
        for m in range(1, 5):
            spec = make_residue_spec(m, range(m))
            assert factory.table(spec, FULL_A).values == tuple(real(n))
            assert factory.table(spec, A_PLUS).values == count_dp(parts_up_to(spec, A_PLUS, n), n)
        assert runs == [n]

    @pytest.mark.parametrize("variant", [FULL_A, A_PLUS, R_PLUS])
    def test_every_read_shares_one_values_tuple(self, variant):
        """A table is built once per factory; a second read returns its very counts."""
        factory = TableFactory(40)
        for spec in subsets_for_modulus(3):
            assert factory.table(spec, variant).values is factory.table(spec, variant).values

    def test_every_residue_full_set_is_the_tuple_of_p(self):
        """For m = 1..4 the full-a table of every residue is p(n)'s tail table, not a copy."""
        factory = TableFactory(60)
        p = factory.table(make_residue_spec(1, [0]), A_PLUS).values
        for m in range(1, 5):
            assert factory.table(make_residue_spec(m, range(m)), FULL_A).values is p

    def test_second_read_makes_no_pass(self, monkeypatch):
        """Reading a full-set table again runs no _add_part pass over it."""
        passes = []
        real = counting._add_part

        def recording(values, a):
            passes.append(a)
            real(values, a)

        monkeypatch.setattr(counting, "_add_part", recording)
        factory, spec = TableFactory(30), make_residue_spec(3, [0, 2])
        first = factory.table(spec, FULL_A).values
        assert passes
        passes.clear()
        assert factory.table(spec, FULL_A).values == first
        assert passes == []


class TestCertify:
    def test_passes_every_factory_table(self):
        factory, cache = TableFactory(50), {}
        for spec in subsets_for_modulus(3):
            for variant in (FULL_A, A_PLUS, R_PLUS):
                assert certify(factory.table(spec, variant), cache)

    def test_refuses_counts_of_another_variant(self):
        """Right counts under the wrong label: certified against the label's parts."""
        spec = make_residue_spec(3, [0, 2])
        full = TableFactory(50).table(spec, FULL_A)
        assert not certify(CountTable(spec, A_PLUS, full.values), {})
        assert certify(CountTable(spec, FULL_A, full.values), {})

    def test_engines_run_once_per_part_list_and_n_max(self, monkeypatch):
        """The walk runs once per (part list, cap); the identity once per (part list, counts)."""
        walks, identities = [], []
        real_walk, real_identity = counting.count_bruteforce, counting.recurrence_holds

        def recording(parts, n):
            walks.append((parts, n))
            return real_walk(parts, n)

        def recording_identity(values, parts):
            identities.append(len(values) - 1)
            return real_identity(values, parts)

        monkeypatch.setattr(counting, "count_bruteforce", recording)
        monkeypatch.setattr(counting, "recurrence_holds", recording_identity)
        cache = {}
        # the tail set of m = 2, R = {0} and the full set of m = 4, R = {0, 2}
        # are both the even numbers, so their tables hold equal counts
        evens = [(make_residue_spec(2, [0]), A_PLUS), (make_residue_spec(4, [0, 2]), FULL_A)]
        for spec, variant in evens:
            assert certify(TableFactory(30).table(spec, variant), cache)
        assert certify(TableFactory(20).table(make_residue_spec(2, [0]), A_PLUS), cache)
        assert walks == [(tuple(range(2, 31, 2)), 30), (tuple(range(2, 21, 2)), 20)]
        assert identities == [30, 20]

    def test_walk_caches_at_the_cap(self):
        """Above the cap a walk is shared by tables of one part list, the identity only by equal counts."""
        spec, cache = make_residue_spec(1, [0]), {}
        table = TableFactory(100).table(spec, FULL_A)
        assert certify(table, cache)
        assert list(cache) == [(table.parts, 40), (table.parts, table.values)]
        wrong = table.values[:70] + (table.values[70] + 1,) + table.values[71:]
        assert not certify(CountTable(spec, FULL_A, wrong), cache)

    def test_identity_runs_once_per_part_list_and_counts(self, monkeypatch):
        """Equal parts and counts share one identity; one count off above the cap is checked and fails."""
        identities = []
        real_identity = counting.recurrence_holds

        def recording_identity(values, parts):
            identities.append(values)
            return real_identity(values, parts)

        monkeypatch.setattr(counting, "recurrence_holds", recording_identity)
        factory, cache = TableFactory(100), {}
        # both the even numbers: equal part lists, equal counts, two tuples
        tail = factory.table(make_residue_spec(2, [0]), A_PLUS)
        full = factory.table(make_residue_spec(4, [0, 2]), FULL_A)
        assert tail.parts == full.parts and tail.values == full.values
        assert tail.values is not full.values
        assert certify(tail, cache) is True
        assert certify(full, cache) is True
        assert identities == [tail.values]
        wrong = full.values[:70] + (full.values[70] + 1,) + full.values[71:]
        assert certify(CountTable(full.spec, FULL_A, wrong), cache) is False
        assert identities == [tail.values, wrong]


def test_partition_numbers_match_count_dp():
    """Every n <= 40 (each new pentagonal offset up to 40) and n = 1000."""
    table = list(count_dp(range(1, 1001), 1000))
    assert counting._partition_numbers(1000) == table
    for n in range(41):
        assert counting._partition_numbers(n) == table[: n + 1]


def _dp_tables(spec, n):
    """(a-plus, full-a, r-plus) counts of 0..n from count_dp."""
    return tuple(
        count_dp(parts_up_to(spec, variant, n), n)
        for variant in (A_PLUS, FULL_A, R_PLUS)
    )


def test_enumeration_oracle_is_sane():
    """The test-side oracle itself: partitions of 4 over [1..4], listed."""
    got = sorted(enumerate_partitions([1, 2, 3, 4], 4))
    assert got == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
