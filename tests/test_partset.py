"""Residue-spec validation and part-set enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.partset import (
    A_PLUS,
    FULL_A,
    R_PLUS,
    SpecError,
    make_residue_spec,
    parts_up_to,
)


def spec_strategy(m_max=8, allow_empty=True):
    def build(m, bits):
        lo = 0 if allow_empty else 1
        bits = max(bits, lo)
        return make_residue_spec(m, [r for r in range(m) if bits >> r & 1])

    return st.integers(1, m_max).flatmap(
        lambda m: st.builds(build, st.just(m), st.integers(0, 2**m - 1))
    )


class TestMakeResidueSpec:
    def test_basic(self):
        spec = make_residue_spec(4, [1, 3])
        assert spec.m == 4
        assert spec.residues == (1, 3)
        assert spec.rsize == 2

    def test_classical_case(self):
        spec = make_residue_spec(1, [0])
        assert (spec.m, spec.residues) == (1, (0,))

    def test_sorts_input(self):
        assert make_residue_spec(5, [4, 0, 2]).residues == (0, 2, 4)

    def test_empty_residues_allowed(self):
        assert make_residue_spec(3, []).rsize == 0

    @pytest.mark.parametrize(
        "m,residues",
        [(3, [5]), (3, [-1]), (0, [0]), (-2, [0]), (4, [1, 1]), (2, [0, 2])],
    )
    def test_rejects_bad_specs(self, m, residues):
        with pytest.raises(SpecError):
            make_residue_spec(m, residues)


class TestPartsUpTo:
    def test_odd_parts(self):
        spec = make_residue_spec(2, [1])
        assert parts_up_to(spec, FULL_A, 7) == [1, 3, 5, 7]
        assert parts_up_to(spec, A_PLUS, 7) == [3, 5, 7]

    def test_modulus_one_tail_is_everything(self):
        spec = make_residue_spec(1, [0])
        assert parts_up_to(spec, A_PLUS, 4) == [1, 2, 3, 4]
        assert parts_up_to(spec, FULL_A, 4) == [1, 2, 3, 4]

    def test_rplus_drops_zero(self):
        spec = make_residue_spec(4, [0, 1, 3])
        assert parts_up_to(spec, R_PLUS, 10) == [1, 3]
        assert parts_up_to(spec, R_PLUS, 0) == []

    def test_unknown_variant_label(self):
        spec = make_residue_spec(1, [0])
        with pytest.raises(SpecError):
            parts_up_to(spec, "all-naturals", 4)

    def test_empty_residues_enumerate_nothing(self):
        spec = make_residue_spec(3, [])
        assert parts_up_to(spec, FULL_A, 20) == []
        assert parts_up_to(spec, A_PLUS, 20) == []


@given(spec=spec_strategy(), bound=st.integers(0, 80))
@settings(max_examples=150)
def test_full_set_splits_into_head_and_tail(spec, bound):
    """The full set is the disjoint union of the tail set and the head parts."""
    full = parts_up_to(spec, FULL_A, bound)
    tail = parts_up_to(spec, A_PLUS, bound)
    head = parts_up_to(spec, R_PLUS, bound)
    assert set(tail) | set(head) == set(full)
    assert set(tail) & set(head) == set()


@given(spec=spec_strategy(), bound=st.integers(0, 80))
@settings(max_examples=150)
def test_tail_set_splits_into_residue_slices(spec, bound):
    """The tail set partitions into its single-residue slices {r+m, r+2m, ...}."""
    tail = parts_up_to(spec, A_PLUS, bound)
    slices = [range(spec.m + r, bound + 1, spec.m) for r in spec.residues]
    combined = [a for sl in slices for a in sl]
    assert sorted(combined) == tail
    assert len(combined) == len(set(combined))


@given(spec=spec_strategy(), bound=st.integers(0, 80))
@settings(max_examples=150)
def test_tail_members_at_least_m_in_class(spec, bound):
    for a in parts_up_to(spec, A_PLUS, bound):
        assert a >= spec.m
        assert a % spec.m in spec.residues


@given(m=st.integers(1, 8), bound=st.integers(0, 60))
@settings(max_examples=60)
def test_zero_residue_makes_full_equal_tail(m, bound):
    """With R = {0} there are no head parts, so the full and tail sets agree."""
    spec = make_residue_spec(m, [0])
    assert parts_up_to(spec, FULL_A, bound) == parts_up_to(spec, A_PLUS, bound)


def _is_member(spec, variant, a):
    """Membership of a positive integer a, straight from the set definitions."""
    if variant == FULL_A:
        return a % spec.m in spec.residues
    if variant == A_PLUS:
        return a >= spec.m and a % spec.m in spec.residues
    return a in spec.residues  # R+: a >= 1 excludes the residue 0


@given(spec=spec_strategy(), bound=st.integers(0, 60))
@settings(max_examples=100)
def test_enumeration_matches_membership(spec, bound):
    for variant in (FULL_A, A_PLUS, R_PLUS):
        members = parts_up_to(spec, variant, bound)
        assert members == sorted(set(members))
        expected = [a for a in range(1, bound + 1) if _is_member(spec, variant, a)]
        assert members == expected
