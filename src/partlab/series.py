"""Analytic identities and pointwise inequalities behind the tail-set bound.

Checked numerically at double precision:

* the weighted tail series ``sum_{a in A+} a*t**a`` against its closed form
  ``sum_r ((r+m)*t**(r+m) - r*t**(2m+r)) / (1 - t**m)**2``; the series is
  summed once, in increasing a, and read at doubling cutoffs;
* the per-residue kernel bound (lhs of the closed form at t = e**-x is at
  most ``1/(m*x**2)``) and its summed version (at most ``|R|/(m*x**2)``);
* the helper facts ``e**(x/2) - e**(-x/2) > x``, the monotone envelope
  ``(r+m)e**(-rx) - r*e**(-(m+r)x) <= m`` with equality at 0, and
  ``sqrt(n-d) <= sqrt(n) - d/(2*sqrt(n))`` for every d = a*k <= n;
* the failure of the analogous kernel bound for the odd-part full set,
  ``(e**-x + e**-3x)/(1 - e**-2x)**2 <= 1/(2x**2)``, which is false: the
  finder reports every grid point where it breaks.

The three kernel statements evaluate one kernel, ``kernel_sides``.
Near-singular denominators always go through expm1, so the two sides of
each inequality keep ~15 significant digits even as both blow up like
1/x**2.  Every one-sided verdict compares its two sides exactly, with no
tolerance: a row holds when lhs <= rhs (the sinh gap strictly), and the
envelope equals m at x = 0.  A margin of exactly 0 occurs only where both
sides are exact in floats (eq3 with R empty, envelope rows with r = 0 or
at x = 0); every other margin of default ``verify``, and of the m <= 8
analytic grid, exceeds the rounding of its sides by a factor of at least
10**8, and the test suite pins 10**6.  Only eq1, a truncated sum against its closed form, keeps a
relative tolerance.

Each check returns its report row, built once as the dict that is
emitted: ``{check, m, R, r, x, t, lhs, rhs, margin, holds}``, with the
evaluation point both as x > 0 and as t = e**-x in (0, 1) (the envelope's
x = 0 row has t = 1); fields a check has no value for are None.  The
margin depends on the check.  For one-sided inequalities margin = rhs -
lhs (nonnegative means the inequality holds); for identities margin =
|lhs - rhs|.  The finder for the odd-part counterexample inverts this:
margin = lhs - rhs measures the violation it is looking for.  The sqrt
split returns one ``{check, n, margin, holds}`` row per n, whose margin is
the least over d.
"""

from __future__ import annotations

import math

from .partset import ResidueSpec

SERIES_REL_TOL = 1e-9
TAIL_RULE_REL = 1e-12
TAIL_RULE_START = 64
TAIL_RULE_CAP = 2**20


def default_x_grid() -> list[float]:
    """200 log-spaced points on [1e-3, 1e2], plus the exact unit point.

    The raw spacing never lands on x = 1.0 exactly, and the odd-part
    counterexample is traditionally quoted there, so 1.0 is inserted
    explicitly.
    """
    step = 5.0 / 199
    pts = [10.0 ** (-3.0 + i * step) for i in range(200)]
    pts.append(1.0)
    pts.sort()
    return pts


def default_t_grid() -> list[float]:
    """Uniform t grid {0.05, 0.10, ..., 0.95}."""
    return [i / 20 for i in range(1, 20)]


# --- the weighted tail series and its closed form ----------------------------


def series_sum_adaptive(spec: ResidueSpec, t: float) -> tuple[float, bool]:
    """Sum the tail series by the doubling rule, in one pass: (value, converged).

    Adds ``a * t**a`` in increasing a, powers advancing by repeated
    multiplication with t**m within each residue class, and reads the
    partial sum at the cutoffs TAIL_RULE_START, 2*TAIL_RULE_START, ...,
    TAIL_RULE_CAP.  Returns at the first doubling that changes the partial
    sum by less than TAIL_RULE_REL relatively, a certified truncation
    without symbolic tail bounds; gives up (converged=False) at the cap,
    which occurs only as t approaches 1.
    Each partial sum is the float that summing from scratch to its cutoff
    gives, because the terms and their order are the same.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    m, residues = spec.m, spec.residues
    if not residues:
        return 0.0, True
    tm = t**m
    powers = [t ** (m + r) for r in residues]
    total = 0.0
    previous = None  # the partial sum at the last cutoff
    cutoff = TAIL_RULE_START
    k = 1
    while True:
        base = m * k
        for i, r in enumerate(residues):
            a = base + r
            while a > cutoff:  # total is the partial sum over a <= cutoff
                if previous is not None and total - previous <= TAIL_RULE_REL * total:
                    return total, True
                if cutoff > TAIL_RULE_CAP // 2:
                    return total, False
                previous = total
                cutoff *= 2
            total += a * powers[i]
            powers[i] *= tm
        k += 1


def rhs_closed_form(spec: ResidueSpec, t: float) -> float:
    """Closed form of the weighted tail series at t in (0, 1)."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    m = spec.m
    den = 1.0 - t**m
    den2 = den * den
    total = 0.0
    for r in spec.residues:
        total += ((r + m) * t ** (r + m) - r * t ** (2 * m + r)) / den2
    return total


def _kernel_term(r: int, m: int, x: float) -> float:
    """One class's closed-form term at t = e**-x, via expm1.

    ((r+m)e**-(r+m)x - r e**-(2m+r)x) / (1 - e**-mx)**2, stable for tiny x:
    the weighted series of the parts r+m, r+2m, ..., so r is the offset of
    the class's least part from m (a tail residue, or r - m for a residue r
    of the full set).
    """
    den = -math.expm1(-m * x)
    num = (r + m) * math.exp(-(r + m) * x) - r * math.exp(-(2 * m + r) * x)
    return num / (den * den)


def kernel_sides(m: int, offsets: tuple[int, ...], x: float) -> tuple[float, float]:
    """The kernel bound at x > 0 as (lhs, rhs).

    lhs sums ``_kernel_term`` over the classes' offsets, and rhs is
    len(offsets)/(m*x**2).  eq2, eq3 and the odd-part remark all compare
    these two sides.
    """
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    # a left-to-right fold, not sum(): from Python 3.12 sum() adds floats
    # with compensated summation, which would move the last bits of the
    # reports by version; the empty fold stays the int 0, printed as "0"
    lhs = 0
    for r in offsets:
        lhs += _kernel_term(r, m, x)
    return lhs, len(offsets) / (m * x * x)


def _row(
    check: str,
    m: int | None,
    residues: tuple[int, ...] | None,
    r: int | None,
    x: float,
    t: float,
    lhs: float,
    rhs: float,
    margin: float,
    holds: bool,
) -> dict:
    return {
        "check": check,
        "m": m,
        "R": residues,
        "r": r,
        "x": x,
        "t": t,
        "lhs": lhs,
        "rhs": rhs,
        "margin": margin,
        "holds": holds,
    }


def check_eq1(spec: ResidueSpec, t: float) -> dict:
    """Truncated tail series vs. closed form, within relative tolerance."""
    value, converged = series_sum_adaptive(spec, t)
    rhs = rhs_closed_form(spec, t)
    diff = abs(value - rhs)
    scale = max(abs(rhs), abs(value))
    margin = diff / scale if scale > 0 else 0.0
    holds = converged and margin <= SERIES_REL_TOL
    return _row("eq1", spec.m, spec.residues, None, -math.log(t), t, value, rhs, margin, holds)


# --- pointwise inequalities ---------------------------------------------------


def check_eq2_pointwise(r: int, m: int, x: float) -> dict:
    """Per-residue kernel bound: closed-form term at e**-x vs. 1/(m*x**2)."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if not 0 <= r <= m - 1:
        raise ValueError(f"residue {r} out of range [0, {m - 1}]")
    lhs, rhs = kernel_sides(m, (r,), x)
    return _row("eq2", m, None, r, x, math.exp(-x), lhs, rhs, rhs - lhs, lhs <= rhs)


def check_eq3(spec: ResidueSpec, x: float) -> dict:
    """Summed kernel bound: tail series at e**-x vs. |R|/(m*x**2)."""
    lhs, rhs = kernel_sides(spec.m, spec.residues, x)
    return _row(
        "eq3", spec.m, spec.residues, None, x, math.exp(-x), lhs, rhs, rhs - lhs, lhs <= rhs
    )


def check_sinh_inequality(x: float) -> dict:
    """Strict gap e**(x/2) - e**(-x/2) > x, plus its reciprocal consequence.

    The equivalent consequence e**-x / (1 - e**-x)**2 < 1/x**2 is evaluated
    through the same sinh expression, so both must hold strictly.  The
    margin near 0 behaves like x**3/24 and needs full double precision.
    """
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    gap = 2.0 * math.sinh(0.5 * x)
    primary = gap > x
    # consequence: 1/gap**2 < 1/x**2  (gap may overflow for huge x; then it holds)
    if math.isinf(gap):
        consequence = True
    else:
        consequence = 1.0 / (gap * gap) < 1.0 / (x * x)
    return _row(
        "sinh", None, None, None, x, math.exp(-x), x, gap, gap - x, primary and consequence
    )


def check_sqrt_split(n: int) -> dict:
    """sqrt(n - d) <= sqrt(n) - d/(2*sqrt(n)) for every 1 <= d <= n.

    The split of sqrt(n - a*k) depends on a and k only through d = a*k.
    The row holds when every d does, and its margin is the smallest gap
    (sqrt(n) - d/(2*sqrt(n))) - sqrt(n - d) over d.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    root_n = math.sqrt(n)
    sqrt = math.sqrt
    worst = math.inf
    for d in range(1, n + 1):
        worst = min(worst, root_n - d / (2.0 * root_n) - sqrt(n - d))
    return {"check": "sqrt-split", "n": n, "margin": worst, "holds": worst >= 0}


def check_derivative_nonpositive(r: int, m: int, x_grid: list[float]) -> list[dict]:
    """Monotone-envelope facts for (r+m)e**(-rx) - r*e**(-(m+r)x).

    Emits, per grid point x >= 0: the derivative value
    r(r+m)(e**(-(m+r)x) - e**(-rx)) checked nonpositive, and the envelope
    value checked at most m.  At x = 0 the envelope must equal m exactly.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if not 0 <= r <= m - 1:
        raise ValueError(f"residue {r} out of range [0, {m - 1}]")
    out = []
    for x in x_grid:
        if x < 0:
            raise ValueError(f"grid points must be >= 0, got {x}")
        t = math.exp(-x)
        deriv = r * (r + m) * (math.exp(-(m + r) * x) - math.exp(-r * x))
        out.append(_row("envelope-derivative", m, None, r, x, t, deriv, 0.0, -deriv, deriv <= 0))
        envelope = (r + m) * math.exp(-r * x) - r * math.exp(-(m + r) * x)
        if x == 0:
            label, margin, holds = "envelope-at-zero", abs(envelope - m), envelope == m
        else:
            label, margin, holds = "envelope-cap", m - envelope, envelope <= m
        out.append(_row(label, m, None, r, x, t, envelope, float(m), margin, holds))
    return out


def find_counterexample_odd_remark(x_grid: list[float]) -> list[dict]:
    """Grid points where (e**-x + e**-3x)/(1 - e**-2x)**2 > 1/(2x**2).

    This is the kernel bound one would want for the odd-part FULL set, the
    full set of m = 2, R = {1}: its one class has offset 1 - 2 = -1, so
    both sides come from ``kernel_sides(2, (-1,), x)``.  The bound is
    false, and the returned rows are the witnesses, the points where lhs >
    rhs; margin is the violation lhs - rhs.
    """
    out = []
    for x in x_grid:
        lhs, rhs = kernel_sides(2, (-1,), x)
        if lhs > rhs:
            t = math.exp(-x)
            out.append(_row("odd-remark", None, None, None, x, t, lhs, rhs, lhs - rhs, True))
    return out
