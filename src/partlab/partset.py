"""Residue-class part sets: the full set, the tail set and the head parts.

A part-set family is specified by a modulus ``m >= 1`` and a set of
residues ``R`` drawn from ``{0, ..., m-1}``.  The full set A consists of
every positive integer whose residue mod m lies in R; the tail set A+
keeps only the members ``>= m``; the head set R+ = R minus {0} consists
of the small residue parts themselves.  Each of the three variants is
named by its label string (``FULL_A``, ``A_PLUS``, ``R_PLUS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class SpecError(ValueError):
    """Invalid modulus/residue specification or unknown variant label."""


@dataclass(frozen=True)
class ResidueSpec:
    """A validated (modulus, residues) pair; its strictly increasing tuple is R's one form."""

    m: int
    residues: tuple[int, ...]

    @property
    def rsize(self) -> int:
        """Number of residue classes, |R|."""
        return len(self.residues)


def make_residue_spec(m: int, residues: Iterable[int]) -> ResidueSpec:
    """Validate and canonicalize a residue-class specification.

    Residues may arrive in any order; they are sorted.  Rejects m < 1,
    duplicates, and residues outside [0, m-1].  An empty residue list is
    allowed and yields empty part sets.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SpecError(f"modulus must be a positive integer, got {m!r}")
    rs = list(residues)
    for r in rs:
        if not isinstance(r, int) or isinstance(r, bool):
            raise SpecError(f"residue must be an integer, got {r!r}")
        if not 0 <= r <= m - 1:
            raise SpecError(f"residue {r} out of range [0, {m - 1}]")
    if len(set(rs)) != len(rs):
        raise SpecError(f"duplicate residues in {rs}")
    return ResidueSpec(m=m, residues=tuple(sorted(rs)))


# The spec of p(n): m = 1 and R = {0}, whose full and tail sets are all of N.
P_SPEC = ResidueSpec(m=1, residues=(0,))


# --- variants ---------------------------------------------------------------

# Each variant is its label: the full set A, the tail set A+ (members >= m)
# and the head parts R+ = R minus {0}.
FULL_A = "full-a"
A_PLUS = "a-plus"
R_PLUS = "r-plus"


def parts_up_to(spec: ResidueSpec, variant: str, n: int) -> list[int]:
    """Strictly increasing list of all members of the variant set that are <= n.

    Members are generated arithmetically (r + k*m per residue class), never
    by scanning integers for divisibility, so cost is linear in the output.
    """
    if n < 0:
        raise ValueError(f"bound must be >= 0, got {n}")
    if variant == R_PLUS:
        return [r for r in spec.residues if 1 <= r <= n]
    if variant not in (FULL_A, A_PLUS):
        raise SpecError(f"unknown variant {variant!r}")
    m = spec.m
    out: list[int] = []
    for r in spec.residues:
        # the class of r starts at m + r in A+, and at r in A (at m when r = 0)
        start = m + r if variant == A_PLUS else r or m
        out.extend(range(start, n + 1, m))
    return sorted(out)
