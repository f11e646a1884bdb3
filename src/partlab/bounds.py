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
floats, and they are exact: a row holds when its slack, bound minus
log(count), is >= 0, with no tolerance.  The slack is exactly 0 only at
n = 0, where log 1 = 0 = c*sqrt(0).  Every n >= 1 row of theorem1, erdos
and chain in default ``verify``, and at m <= 6, n <= 1000, has slack
above 2.4, about 10**14 roundings of its bound; the test suite pins at
least 10**6.  Where both sides are integers (the head-count bound) the
comparison is exact, with no floats involved.  The constant c comes from
``tail_constant`` alone.

Every check takes the exact count table it checks, alone (a
``TableFactory`` table, which the counts check certifies), and builds no
table itself.  The spec, the variant and the n range all come from the
table: a check raises ``IntegrityError`` on a table of another variant
than the one its statement is about, and erdos also on a spec other than
m=1, R={0}.  Each check returns one report row per n of the table, built
once by ``_bound_rows`` as the dict that is emitted:
``{m, R, variant, n, count, log_count, bound, slack, holds}``, with the
count as a decimal string and R as the spec's own residue tuple.
"""

from __future__ import annotations

import math

from .counting import CountTable, IntegrityError
from .partset import A_PLUS, FULL_A, R_PLUS, ResidueSpec

# The spec of p(n): m = 1 and R = {0}, whose full and tail sets are all of N.
P_SPEC = ResidueSpec(m=1, residues=(0,))


def tail_constant(spec: ResidueSpec) -> float:
    """The bound constant c = pi*sqrt(2*|R| / (3*m))."""
    return math.pi * math.sqrt(2.0 * spec.rsize / (3.0 * spec.m))


def _bound_rows(table: CountTable, variant: str, bound_at, exact=None) -> list[dict]:
    """Compare log(count) against bound_at(n) for every entry of a variant table.

    Entries with count 0 are vacuous: the bound constrains only realizable
    n, so they are recorded without log fields and hold by convention.
    With ``exact``, the verdict of every entry is instead ``exact(n,
    count)``, an integer comparison, and the log fields are for reading.
    """
    table.require(variant)
    m, residues = table.spec.m, table.spec.residues
    log = math.log
    out = []
    for n, cnt in enumerate(table.values):
        bound = bound_at(n)
        if cnt == 0:
            lg = slack = None
        else:
            lg = log(cnt)
            slack = bound - lg
        if exact is not None:
            holds = exact(n, cnt)
        else:
            holds = slack is None or slack >= 0
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


def check_theorem1(table: CountTable) -> list[dict]:
    """Tail-set bound c*sqrt(n) at every n of an a-plus table; all entries must hold."""
    c = tail_constant(table.spec)
    sqrt = math.sqrt
    return _bound_rows(table, A_PLUS, lambda n: c * sqrt(n))


def check_erdos(table: CountTable) -> list[dict]:
    """Classical bound pi*sqrt(2n/3) on the table of p(n): the m=1, R={0} case.

    With that spec the tail set is all of N and c = pi*sqrt(2/3), so the
    generic tail-set check specializes to the classical statement exactly.
    """
    if table.spec != P_SPEC:
        raise IntegrityError(
            f"erdos reads the table of p(n) (m=1, R=[0]), got m={table.spec.m}, "
            f"R={list(table.spec.residues)}"
        )
    return check_theorem1(table)


def check_rplus_poly_bound(table: CountTable) -> list[dict]:
    """Exact integer check p_{R+}(n') <= (n'+1)**|R| at every n' of an r-plus table.

    The verdict is an integer comparison (no floats anywhere); the row's
    bound/slack fields carry the log-domain values for readability only.
    """
    rsize = table.spec.rsize
    log = math.log
    return _bound_rows(
        table,
        R_PLUS,
        lambda n: rsize * log(n + 1),
        exact=lambda n, cnt: cnt <= (n + 1) ** rsize,
    )


def check_nathanson_chain(table: CountTable) -> list[dict]:
    """Full-set bound log p_A(n) <= (|R|+1)*log(n+1) + c*sqrt(n) on a full-a table."""
    c = tail_constant(table.spec)
    rfactor = table.spec.rsize + 1
    log, sqrt = math.log, math.sqrt

    def bound_at(n: int) -> float:
        return rfactor * log(n + 1) + c * sqrt(n)

    return _bound_rows(table, FULL_A, bound_at)
