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
floats, guarded by EPS_LOG.  Where both sides are integers (the head-count
bound) the comparison is exact, with no floats involved.  The constant c
comes from ``tail_constant`` alone.

Every check takes the exact count table it checks (a ``TableFactory``
table, which the counts check certifies) and builds no table itself.
Each check returns one report row per n, built once by ``_bound_rows``
as the dict that is emitted: ``{m, R, variant, n, count, log_count, bound, slack, holds}``,
with the count as a decimal string.  The rows of one call share one
residue list, so rows are read-only once built.
"""

from __future__ import annotations

import math

from .counting import BigCount, CountTable
from .partset import A_PLUS, FULL_A, R_PLUS, ResidueSpec

# Absolute tolerance for float comparisons of log(count) against a bound.
# The mathematical slack in every swept case vastly exceeds double-precision
# error; the epsilon guards only the log evaluation itself.
EPS_LOG = 1e-9


def tail_constant(spec: ResidueSpec) -> float:
    """The bound constant c = pi*sqrt(2*|R| / (3*m))."""
    return math.pi * math.sqrt(2.0 * spec.rsize / (3.0 * spec.m))


def _bound_rows(
    spec: ResidueSpec, variant: str, values, bound_at, exact=None
) -> list[dict]:
    """Compare log(count) against bound_at(n) for every table entry.

    Entries with count 0 are vacuous: the bound constrains only realizable
    n, so they are recorded without log fields and hold by convention.
    With ``exact``, the verdict of every entry is instead ``exact(n,
    count)``, an integer comparison, and the log fields are for reading.
    """
    m = spec.m
    residues = list(spec.residues)  # shared by every row; rows are read-only
    log = math.log
    out = []
    for n, cnt in enumerate(values):
        bound = bound_at(n)
        if cnt == 0:
            lg = slack = None
        else:
            lg = log(cnt)
            slack = bound - lg
        if exact is not None:
            holds = exact(n, cnt)
        else:
            holds = slack is None or slack >= -EPS_LOG
        out.append(
            {
                "m": m,
                "R": residues,
                "variant": variant,
                "n": n,
                "count": str(cnt),
                "log_count": lg,
                "bound": bound,
                "slack": slack,
                "holds": holds,
            }
        )
    return out


def check_theorem1(spec: ResidueSpec, n_max: int, table: CountTable) -> list[dict]:
    """Tail-set bound c*sqrt(n) at every 0 <= n <= n_max; all entries must hold."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    c = tail_constant(spec)
    sqrt = math.sqrt
    return _bound_rows(spec, A_PLUS, table.values[: n_max + 1], lambda n: c * sqrt(n))


def check_erdos(n_max: int, table: CountTable) -> list[dict]:
    """Classical bound pi*sqrt(2n/3) on the table of p(n): the m=1, R={0} case.

    With that spec the tail set is all of N and c = pi*sqrt(2/3), so the
    generic tail-set check specializes to the classical statement exactly.
    """
    return check_theorem1(ResidueSpec(m=1, residues=(0,)), n_max, table=table)


def check_rplus_poly_bound(spec: ResidueSpec, n_max: int, table: CountTable) -> list[dict]:
    """Exact integer check p_{R+}(n') <= (n'+1)**|R| for all n' <= n_max.

    The verdict is an integer comparison (no floats anywhere); the row's
    bound/slack fields carry the log-domain values for readability only.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rsize = spec.rsize
    log = math.log
    return _bound_rows(
        spec,
        R_PLUS,
        table.values[: n_max + 1],
        lambda n: rsize * log(n + 1),
        exact=lambda n, cnt: cnt <= (n + 1) ** rsize,
    )


def check_nathanson_chain(spec: ResidueSpec, n_max: int, table: CountTable) -> list[dict]:
    """Full-set bound log p_A(n) <= (|R|+1)*log(n+1) + c*sqrt(n), n <= n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    c = tail_constant(spec)
    rfactor = spec.rsize + 1
    log, sqrt = math.log, math.sqrt

    def bound_at(n: int) -> float:
        return rfactor * log(n + 1) + c * sqrt(n)

    return _bound_rows(spec, FULL_A, table.values[: n_max + 1], bound_at)


def asymptotic_ratio(spec: ResidueSpec, n: int, count: BigCount) -> float:
    """Diagnostic ratio log p_A(n) / (c*sqrt(n)); no pass/fail judgement.

    The ratio drifts toward 1 from below as n grows; no convergence rate is
    asserted because none is quantified for it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spec.rsize == 0:
        raise ValueError("ratio undefined for an empty residue set")
    if count < 1:
        raise ValueError(f"no partitions of {n}; ratio undefined")
    return math.log(count) / (tail_constant(spec) * math.sqrt(n))
