"""Upper-bound checkers for restricted partition counts.

The central statement verified here: for parts drawn from the tail set of
any residue family (m, R), the log of the partition count never exceeds
``pi * sqrt(2*n*|R| / (3*m))``.  Specializing to m=1, R={0} gives the
classical Erdos bound ``log p(n) <= pi*sqrt(2n/3)``.  Convolving with the
head parts yields the Nathanson chain for the full set:
``log p_A(n) <= (|R|+1)*log(n+1) + c*sqrt(n)`` with ``c = pi*sqrt(2|R|/3m)``,
and the head counts obey the exact polynomial bound
``p_{R+}(n') <= (n'+1)**|R|``.

Counts are exact integers; only the final log-vs-bound comparisons use
floats, guarded by EPS_LOG.  Where both sides are integers the comparison
is exact, with no floats involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import BigCount, CountTable, count_dp
from .partset import A_PLUS, FULL_A, R_PLUS, ResidueSpec, parts_up_to

# Absolute tolerance for float comparisons of log(count) against a bound.
# The mathematical slack in every swept case vastly exceeds double-precision
# error; the epsilon guards only the log evaluation itself.
EPS_LOG = 1e-9


@dataclass(frozen=True)
class BoundParams:
    """The bound constant c = pi*sqrt(2*|R| / (3*m)) with its ingredients."""

    c: float
    m: int
    rsize: int

    @classmethod
    def from_spec(cls, spec: ResidueSpec) -> "BoundParams":
        c = math.pi * math.sqrt(2.0 * spec.rsize / (3.0 * spec.m))
        return cls(c=c, m=spec.m, rsize=spec.rsize)


@dataclass(frozen=True)
class BoundReport:
    """Exact count vs. bound at one n; log fields absent when the count is 0."""

    m: int
    residues: tuple[int, ...]
    variant: str
    n: int
    count: BigCount
    log_count: float | None
    bound: float
    slack: float | None
    holds: bool

    def as_row(self) -> dict:
        return {
            "m": self.m,
            "R": list(self.residues),
            "variant": self.variant,
            "n": self.n,
            "count": str(self.count),
            "log_count": self.log_count,
            "bound": self.bound,
            "slack": self.slack,
            "holds": self.holds,
        }


def log_of_count(c: BigCount) -> float:
    """Natural log of a positive integer count of any size.

    Splits off the binary exponent internally (ln c = ln mant + e*ln 2), so
    counts far beyond float range are fine; relative error is ~1 ulp.
    """
    if c <= 0:
        raise ValueError(f"count must be >= 1, got {c}")
    return math.log(c)


def erdos_rhs(n: int) -> float:
    """The classical upper bound pi*sqrt(2n/3) on log p(n)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return math.pi * math.sqrt(2.0 * n / 3.0)


def theorem1_rhs(n: int, params: BoundParams) -> float:
    """The tail-set bound c*sqrt(n) = pi*sqrt(2*n*|R| / (3*m))."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return params.c * math.sqrt(n)


def _bound_reports(
    spec: ResidueSpec,
    variant: str,
    values,
    bound_at,
) -> list[BoundReport]:
    """Compare log(count) against bound_at(n) for every table entry.

    Entries with count 0 are vacuous: the bound constrains only realizable
    n, so they are recorded without log fields and hold by convention.
    """
    out = []
    for n, cnt in enumerate(values):
        bound = bound_at(n)
        if cnt == 0:
            out.append(
                BoundReport(
                    m=spec.m,
                    residues=spec.residues,
                    variant=variant,
                    n=n,
                    count=0,
                    log_count=None,
                    bound=bound,
                    slack=None,
                    holds=True,
                )
            )
            continue
        lg = log_of_count(cnt)
        slack = bound - lg
        out.append(
            BoundReport(
                m=spec.m,
                residues=spec.residues,
                variant=variant,
                n=n,
                count=cnt,
                log_count=lg,
                bound=bound,
                slack=slack,
                holds=slack >= -EPS_LOG,
            )
        )
    return out


def check_theorem1(
    spec: ResidueSpec, n_max: int, table: CountTable | None = None
) -> list[BoundReport]:
    """Tail-set bound at every 0 <= n <= n_max; all entries must hold."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if table is None:
        table = count_dp(parts_up_to(spec, A_PLUS, n_max), n_max)
    params = BoundParams.from_spec(spec)
    return _bound_reports(
        spec, A_PLUS, table.values[: n_max + 1], lambda n: theorem1_rhs(n, params)
    )


def check_erdos(n_max: int, table: CountTable | None = None) -> list[BoundReport]:
    """Classical bound on the unrestricted p(n): the m=1, R={0} special case.

    With that spec the tail set is all of N and c = pi*sqrt(2/3), so the
    generic tail-set check specializes to the classical statement exactly.
    """
    return check_theorem1(ResidueSpec(m=1, residues=(0,)), n_max, table=table)


def check_rplus_poly_bound(
    spec: ResidueSpec, n_max: int, table: CountTable | None = None
) -> list[BoundReport]:
    """Exact integer check p_{R+}(n') <= (n'+1)**|R| for all n' <= n_max.

    The verdict is an integer comparison (no floats anywhere); the report's
    bound/slack fields carry the log-domain values for readability only.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if table is None:
        table = count_dp(parts_up_to(spec, R_PLUS, n_max), n_max)
    rsize = spec.rsize
    out = []
    for n, cnt in enumerate(table.values[: n_max + 1]):
        bound_int = (n + 1) ** rsize
        bound_log = rsize * math.log(n + 1)
        holds = cnt <= bound_int
        lg = log_of_count(cnt) if cnt > 0 else None
        out.append(
            BoundReport(
                m=spec.m,
                residues=spec.residues,
                variant=R_PLUS,
                n=n,
                count=cnt,
                log_count=lg,
                bound=bound_log,
                slack=bound_log - lg if lg is not None else None,
                holds=holds,
            )
        )
    return out


def check_nathanson_chain(
    spec: ResidueSpec, n_max: int, table: CountTable | None = None
) -> list[BoundReport]:
    """Full-set bound log p_A(n) <= (|R|+1)*log(n+1) + c*sqrt(n), n <= n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if table is None:
        table = count_dp(parts_up_to(spec, FULL_A, n_max), n_max)
    params = BoundParams.from_spec(spec)
    rfactor = spec.rsize + 1

    def bound_at(n: int) -> float:
        return rfactor * math.log(n + 1) + params.c * math.sqrt(n)

    return _bound_reports(spec, FULL_A, table.values[: n_max + 1], bound_at)


def asymptotic_ratio(
    spec: ResidueSpec, n: int, count: BigCount | None = None
) -> float:
    """Diagnostic ratio log p_A(n) / (c*sqrt(n)); no pass/fail judgement.

    The ratio drifts toward 1 from below as n grows; no convergence rate is
    asserted because none is quantified for it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spec.rsize == 0:
        raise ValueError("ratio undefined for an empty residue set")
    if count is None:
        count = count_dp(parts_up_to(spec, FULL_A, n), n).values[n]
    if count < 1:
        raise ValueError(f"no partitions of {n}; ratio undefined")
    params = BoundParams.from_spec(spec)
    return log_of_count(count) / (params.c * math.sqrt(n))
