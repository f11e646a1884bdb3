"""Named mutants of partlab, each with the checks expected to kill it.

A mutant replaces one attribute of one partlab module: ``make`` receives
the original and returns the replacement, so a mutant can wrap the real
code and change one value.  ``killers`` names every check whose summary
fails when default ``verify`` runs with the mutant in place.  An empty
set records a survivor: a measurement, not an allowance, and no mutant
is added to make a change pass.  A change that kills a survivor gives
it its killers here and says so.
"""

import math
from dataclasses import dataclass
from typing import Callable

from partlab import bounds, counting, series
from partlab.partset import A_PLUS, FULL_A, R_PLUS, ResidueSpec


@dataclass(frozen=True)
class Mutant:
    name: str
    module: object
    attribute: str
    make: Callable
    killers: frozenset


def _scaled_kernel(factor: float) -> Callable:
    def make(term):
        return lambda r, m, x: factor * term(r, m, x)

    return make


def _kernel_above_bound(term):
    """r = 0 at x = 1e-3 reads 1e-4 above its bound 1/(m*x**2), 1e-10 of it at m = 1."""

    def mutant(r, m, x):
        if r == 0 and x == 1e-3:
            return 1.0 / (m * x * x) + 1e-4
        return term(r, m, x)

    return mutant


def _theorem1_bound_below_count(bound_rows):
    """At m = 3, R = {1}, n = 50 the tail bound reads 1e-10 below log(count)."""
    spec, target = ResidueSpec(m=3, residues=(1,)), 50

    def mutant(table, variant, bound_at, exact=None):
        if table.spec == spec and variant == A_PLUS:
            real = bound_at

            def bound_at(n):
                return math.log(table.values[n]) - 1e-10 if n == target else real(n)

        return bound_rows(table, variant, bound_at, exact)

    return mutant


def _add_part_skipping_last_total(add_part):
    """The coin-change kernel stops one total short of the table's end."""

    def mutant(values, a):
        for j in range(a, len(values) - 1):
            values[j] += values[j - a]

    return mutant


def _one_more_at(index: int) -> Callable:
    """Wrap a function that returns a list or tuple: add 1 at index when it has one."""

    def make(real):
        def mutant(*args):
            result = real(*args)
            values = list(result)
            if len(values) > index:
                values[index] += 1
            return type(result)(values)

        return mutant

    return make


def _scaled_constant(factor: float) -> Callable:
    """The tail constant c times factor, in every check that reads it."""

    def make(constant):
        return lambda spec: factor * constant(spec)

    return make


def _chain_log_factor(factor: Callable[[int], int]) -> Callable:
    """The chain's bound with its log factor |R|+1 replaced by factor(|R|)."""

    def make(chain):
        def mutant(table):
            c = bounds.tail_constant(table.spec)
            k = factor(table.spec.rsize)
            return bounds._bound_rows(
                table, FULL_A, lambda n: k * math.log(n + 1) + c * math.sqrt(n)
            )

        return mutant

    return make


def _rpoly_exponent(exponent: Callable[[ResidueSpec], int]) -> Callable:
    """The head-count bound (n'+1)**|R| with its exponent replaced by exponent(spec)."""

    def make(rpoly):
        def mutant(table):
            k = exponent(table.spec)
            return bounds._bound_rows(
                table,
                R_PLUS,
                lambda n: k * math.log(n + 1),
                exact=lambda n, cnt: cnt <= (n + 1) ** k,
            )

        return mutant

    return make


def _every_other_witness(finder):
    """The odd-part remark's finder keeps only every second witness it finds."""
    return lambda x_grid: finder(x_grid)[::2]


MUTANTS = (
    Mutant("kernel_term_x0.5", series, "_kernel_term", _scaled_kernel(0.5), frozenset({"remark"})),
    Mutant(
        "kernel_term_x1.01",
        series,
        "_kernel_term",
        _scaled_kernel(1.01),
        frozenset({"eq2", "eq3"}),
    ),
    Mutant(
        "theorem1_bound_1e-10_below_log_count",
        bounds,
        "_bound_rows",
        _theorem1_bound_below_count,
        frozenset({"theorem1"}),
    ),
    Mutant(
        "kernel_1e-4_above_bound_at_x_1e-3",
        series,
        "_kernel_term",
        _kernel_above_bound,
        frozenset({"eq2", "eq3"}),
    ),
    Mutant(
        "add_part_skips_last_total",
        counting,
        "_add_part",
        _add_part_skipping_last_total,
        frozenset({"counts"}),
    ),
    Mutant("divisor_sum_2_plus_1", counting, "_divisor_sums", _one_more_at(2), frozenset({"counts"})),
    Mutant(
        "partition_numbers_plus_1_at_150",
        counting,
        "_partition_numbers",
        _one_more_at(150),
        frozenset({"counts"}),
    ),
    Mutant(
        "walk_plus_1_at_40",
        counting,
        "count_bruteforce",
        _one_more_at(40),
        frozenset({"counts"}),
    ),
    Mutant(
        "tail_constant_x0.8",
        bounds,
        "tail_constant",
        _scaled_constant(0.8),
        frozenset({"theorem1", "erdos"}),
    ),
    # The survivors of default verify: no check fails with one in place.
    *[
        Mutant(
            f"tail_constant_x{factor}",
            bounds,
            "tail_constant",
            _scaled_constant(factor),
            frozenset(),
        )
        for factor in (0.9, 0.99, 1.01, 1.5)
    ],
    *[
        Mutant(
            f"chain_log_factor_{label}",
            bounds,
            "check_nathanson_chain",
            _chain_log_factor(factor),
            frozenset(),
        )
        for label, factor in (
            ("1", lambda rsize: 1),
            ("R", lambda rsize: rsize),
            ("R_plus_2", lambda rsize: rsize + 2),
        )
    ],
    Mutant(
        "rpoly_exponent_R_minus_1",
        bounds,
        "check_rplus_poly_bound",
        _rpoly_exponent(lambda spec: spec.rsize - 1),
        frozenset(),
    ),
    Mutant(
        "rpoly_exponent_Rplus_minus_1",
        bounds,
        "check_rplus_poly_bound",
        _rpoly_exponent(lambda spec: sum(r >= 1 for r in spec.residues) - 1),
        frozenset(),
    ),
    Mutant(
        "remark_every_other_witness",
        series,
        "find_counterexample_odd_remark",
        _every_other_witness,
        frozenset(),
    ),
)
