"""Sweep drivers: one table per (spec, variant), the shared oracle cache, the fold,
the streamed sweep."""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from partlab import bounds, counting, series, sweeps
from partlab.partset import A_PLUS, FULL_A, R_PLUS, make_residue_spec


def test_one_oracle_walk_per_distinct_part_list(monkeypatch):
    """Default verify's counts check walks each (part list, n) once, across all m."""
    walks = []
    real = counting.count_bruteforce

    def recording(parts, n):
        walks.append((tuple(parts), n))
        return real(parts, n)

    monkeypatch.setattr(counting, "count_bruteforce", recording)
    result = sweeps.run_verify(sweeps.SweepConfig(checks=("counts",)))
    assert result.ok
    assert len(result.rows) == 90
    assert len(walks) == 51
    assert len(set(walks)) == 51


def test_rows_of_a_spec_share_its_residue_tuple(monkeypatch):
    """Every row builder puts the spec's own residue tuple in R, never a copy.

    So default verify's rows hold at most one R object per (m, R), 30 at
    m <= 4, across all checks, and sweep_rows' rows of a spec hold the
    spec's tuple itself.
    """
    spec = make_residue_spec(3, [0, 2])
    factory = counting.TableFactory(12)
    tables = {label: factory.table(spec, label) for label in sweeps.SWEEP_VARIANTS}
    rows = [
        *bounds.check_theorem1(tables[A_PLUS]),
        *bounds.check_nathanson_chain(tables[FULL_A]),
        *bounds.check_rplus_poly_bound(tables[R_PLUS]),
        *sweeps._ratio_rows(tables[FULL_A]),
        *(sweeps._counts_row(table, {}) for table in tables.values()),
        series.check_eq1(spec, 0.5),
        series.check_eq3(spec, 0.5),
    ]
    assert all(row["R"] is spec.residues for row in rows)

    objects: dict[tuple, set] = {}
    for row in sweeps.run_verify(sweeps.SweepConfig()).rows:
        residues = row.get("R")
        if residues is not None:
            assert type(residues) is tuple
            objects.setdefault((row["m"], residues), set()).add(id(residues))
    assert len(objects) == 30
    assert all(len(ids) == 1 for ids in objects.values())

    specs = []
    real = sweeps.subsets_for_modulus

    def recording(m, include_empty=True):
        specs.extend(made := real(m, include_empty))
        return made

    monkeypatch.setattr(sweeps, "subsets_for_modulus", recording)
    swept = list(sweeps.sweep_rows(3, 10))
    assert len(specs) == 1 + 3 + 7 and len(swept) == 11 * len(specs)
    for i, spec in enumerate(specs):
        assert all(row["R"] is spec.residues for row in swept[11 * i : 11 * (i + 1)])


ALL_SPECS = [spec for m in range(1, 5) for spec in sweeps.subsets_for_modulus(m)]


def test_check_rows_has_one_entry_per_check_name():
    """The table of checks and CHECK_NAMES list the same checks in the same order."""
    assert list(sweeps.check_rows(sweeps.SweepConfig())) == list(sweeps.CHECK_NAMES)


def _key(spec, variant):
    """The factory's key of spec's table of the variant: (m, R, variant), but (0, R+, R_PLUS) for a head table."""
    if variant == R_PLUS:
        return (0, tuple(r for r in spec.residues if r), R_PLUS)
    return (spec.m, spec.residues, variant)


def _keys(variant, specs=ALL_SPECS):
    """The factory's key of each spec's table of the variant."""
    return [_key(s, variant) for s in specs]


@pytest.mark.parametrize(
    "checks, wanted",
    [
        (sweeps.CHECK_NAMES, [k for v in sweeps.SWEEP_VARIANTS for k in _keys(v)]),
        (("theorem1",), _keys(A_PLUS)),
        # every full-a table extends its tail table but those of every
        # residue, which are p(n), itself the tail table of m = 1, R = {0}
        (
            ("chain", "ratio"),
            _keys(FULL_A) + _keys(A_PLUS, [s for s in ALL_SPECS if s.rsize < s.m or s.m == 1]),
        ),
        (("erdos",), [(1, (0,), A_PLUS)]),
    ],
    ids=["default", "theorem1", "chain-ratio", "erdos"],
)
def test_each_table_is_built_once_per_spec(monkeypatch, checks, wanted):
    """Verify builds one factory for the run, and each (m, R, variant) once in it.

    A head table is keyed and built by its R+ alone, once for every m and R
    with that R+; the default run reads 30 of them and builds 8.

    A table is built when a check first reads it, or first reads a table
    built from it: a full-set table extends the spec's tail table, so
    chain and ratio build the tail tables too, and a variant no selected
    check reads, nor any table built from it, is never built.  Every read
    of a table shares the very values its one build made.
    """
    factories = []
    builds = {}
    built_twice = []
    reads = []
    real_init = counting.TableFactory.__init__
    real_build = counting.TableFactory._build
    real_table = counting.TableFactory.table

    def counting_init(self, n_max):
        factories.append(n_max)
        real_init(self, n_max)

    def recording_build(self, m, residues, variant):
        key = (m, residues, variant)
        if key in builds:
            built_twice.append(key)
        builds[key] = real_build(self, m, residues, variant)
        return builds[key]

    def recording_table(self, spec, variant):
        table = real_table(self, spec, variant)
        reads.append(table)
        return table

    monkeypatch.setattr(counting.TableFactory, "__init__", counting_init)
    monkeypatch.setattr(counting.TableFactory, "_build", recording_build)
    monkeypatch.setattr(counting.TableFactory, "table", recording_table)
    result = sweeps.run_verify(sweeps.SweepConfig(checks=checks))
    assert result.ok
    assert factories == [300]
    assert built_twice == []
    assert set(builds) == set(wanted)
    assert reads
    assert all(t.values is builds[_key(t.spec, t.variant)] for t in reads)


# appended to a fresh interpreter's code: prints which pool modules it loaded
PRINT_POOL_MODULES = (
    "; print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
    "if m in sys.modules))"
)


def _fresh_stdout(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter that imports this src."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code + PRINT_POOL_MODULES],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_serial_run_imports_no_pool():
    """No command loads the process pool's module or multiprocessing, on any machine."""
    code = (
        "import sys; from partlab import cli; "
        "assert cli.main(['verify', '--checks', 'theorem1,remark', '--m-max', '2', "
        "'--n-max', '10', '--output', '-']) == 0; "
        "assert cli.main(['sweep', '--m-max', '2', '--n-max', '10']) == 0; "
        "assert cli.main(['table', '--m', '2', '--r', '1', '--n-max', '10']) == 0; "
        "assert cli.main(['count', '--m', '2', '--r', '1', '--n', '10']) == 0"
    )
    assert _fresh_stdout(code)[-1] == "[]"


def test_workers_field_starts_no_pool():
    """The benchmark's ``replace(config, workers=2)`` runs here, as workers=1 does.

    ``SweepConfig.workers`` stays only for that call; no code reads it, so
    the rows and summaries are the one-process run's and no pool module loads.
    """
    code = (
        "import dataclasses, sys; from partlab import sweeps; "
        "config = sweeps.SweepConfig(m_max=2, n_max=10, checks=('counts', 'theorem1')); "
        "runs = [sweeps.run_verify(dataclasses.replace(config, workers=w)) for w in (1, 2)]; "
        "print(runs[0].rows == runs[1].rows and runs[0].summaries == runs[1].summaries)"
    )
    assert _fresh_stdout(code) == ["True", "[]"]


def test_sweep_refuses_negative_n_max_before_any_task(monkeypatch):
    """sweep_rows refuses bad input at the call, before any factory is built.

    Its rows then come lazily: one factory per modulus, built as the rows
    are read, and the same rows as a list built modulus by modulus.
    """
    expected = [
        row
        for m in range(1, 5)
        for spec in sweeps.subsets_for_modulus(m, include_empty=False)
        for row in sweeps.table_rows(spec, counting.TableFactory(40))
    ]
    built = []

    class RecordingFactory(counting.TableFactory):
        def __init__(self, n_max):
            built.append(n_max)
            super().__init__(n_max)

    monkeypatch.setattr(sweeps, "TableFactory", RecordingFactory)
    with pytest.raises(ValueError, match=r"^n_max must be >= 0, got -1$"):
        sweeps.sweep_rows(3, -1)
    with pytest.raises(ValueError, match=r"^m_max must be >= 1, got 0$"):
        sweeps.sweep_rows(0, 5)
    assert built == []
    rows = sweeps.sweep_rows(4, 40)
    first = next(rows)
    assert built == [40]
    rest = list(rows)
    assert built == [40] * 4
    assert [first, *rest] == expected


def test_table_ratio_matches_the_ratio_rows():
    """table_rows' columns are theorem1's rows and verify's ratio rows, bit for bit.

    bound, slack and p_a_plus equal check_theorem1's row at every n, and at
    the ratio checkpoints the bound and ratio also equal the ratio rows',
    which compute c*sqrt(n) on their own.
    """
    for m, residues in [(1, [0]), (2, [1]), (3, [0, 2]), (4, [1, 2, 3])]:
        spec = make_residue_spec(m, residues)
        factory = counting.TableFactory(120)
        rows = sweeps.table_rows(spec, factory)
        theorem1 = bounds.check_theorem1(factory.table(spec, A_PLUS))
        assert len(theorem1) == 121
        assert [(r["bound"], r["slack"], r["p_a_plus"]) for r in rows] == [
            (t["bound"], t["slack"], t["count"]) for t in theorem1
        ]
        ratio_rows = sweeps._ratio_rows(factory.table(spec, FULL_A))
        assert [r["n"] for r in ratio_rows][-3:] == [10, 100, 120]
        for row in ratio_rows:
            assert rows[row["n"]]["bound"] == row["bound"]
            assert rows[row["n"]]["ratio"] == row["ratio"] == row["log_count"] / row["bound"]


def _recording_theorem1(monkeypatch) -> list[list[dict]]:
    """Patch bounds.check_theorem1 to keep every list it returns; return those lists."""
    returned = []
    real = bounds.check_theorem1

    def recording(table):
        returned.append(real(table))
        return returned[-1]

    monkeypatch.setattr(bounds, "check_theorem1", recording)
    return returned


def test_table_rows_are_theorem1s_rows(monkeypatch):
    """table_rows returns the very list check_theorem1 built for the spec's a-plus table."""
    returned = _recording_theorem1(monkeypatch)
    spec = make_residue_spec(3, [0, 2])
    rows = sweeps.table_rows(spec, counting.TableFactory(30))
    assert len(returned) == 1 and rows is returned[0]
    assert all(row["p_a_plus"] is row["count"] and row["R"] is spec.residues for row in rows)


def test_sweep_rows_yield_theorem1s_rows(monkeypatch):
    """sweep_rows yields theorem1's row dicts themselves, not copies."""
    returned = _recording_theorem1(monkeypatch)
    swept = list(sweeps.sweep_rows(3, 10))
    built = [row for rows in returned for row in rows]
    assert len(returned) == 1 + 3 + 7 and len(swept) == len(built) == 11 * 11
    assert all(a is b for a, b in zip(swept, built))


def test_summarize_reads_its_rows_once():
    """A one-shot generator folds as its list does; no rows means nothing was checked."""
    rows = sweeps.run_verify(sweeps.SweepConfig(m_max=2, n_max=10, checks=("theorem1",))).rows
    rows[3] = {**rows[3], "holds": False}
    folded = sweeps.summarize("theorem1", rows)
    assert folded == sweeps.summarize("theorem1", (row for row in rows))
    assert folded == {
        "name": "theorem1",
        "rows": 66,
        "failures": 1,
        "worst_margin": 0.0,
        "holds": False,
    }
    remark = sweeps.summarize("remark", iter([{"margin": 0.5}, {"margin": 2.0}, {"margin": 1.0}]))
    assert remark["worst_margin"] == 2.0 and remark["holds"]
    empty = sweeps.summarize("eq1", iter(()))
    assert empty == {"name": "eq1", "rows": 0, "failures": 0, "worst_margin": None, "holds": False}


def test_config_refuses_when_built():
    """SweepConfig refuses a bad config as it is built, replace included, and orders its checks."""
    refusals = [
        ({"checks": ()}, r"^no checks selected; choose from \("),
        ({"m_max": 0}, r"^m_max must be >= 1, got 0$"),
        ({"n_max": -1}, r"^n_max must be >= 0, got -1$"),
        ({"checks": ("eq2", "nonsense")}, r"^unknown check 'nonsense'; choose from \("),
        ({"workers": 0}, r"^workers must be >= 1, got 0$"),
    ]
    for fields, message in refusals:
        with pytest.raises(ValueError, match=message):
            sweeps.SweepConfig(**fields)
    config = sweeps.SweepConfig(checks=("remark", "eq2", "counts", "eq2"))
    assert config.checks == ("counts", "eq2", "remark")
    assert replace(config, workers=2).checks == config.checks
    with pytest.raises(ValueError, match=r"^m_max must be >= 1, got 0$"):
        replace(config, m_max=0)


# The rows whose margin is exactly 0 in default verify, each exact in floats
# by construction: a bound row at n = 0 (log 1 = 0 = c*sqrt(0)); eq3 with R
# empty (0 against 0); an envelope row with r = 0 (the envelope is m, the
# derivative 0) or at x = 0 (every exponential is 1).
ENVELOPE_CHECKS = ("envelope-cap", "envelope-derivative", "envelope-at-zero")
HEADROOM = 1e6 * sys.float_info.epsilon


def _exact_zero(row: dict) -> bool:
    if "slack" in row:
        return row["n"] == 0
    if row["check"] == "eq3":
        return row["R"] == ()
    return row["check"] in ENVELOPE_CHECKS and (row["r"] == 0 or row["x"] == 0)


def test_exact_verdicts_have_headroom():
    """Every one-sided verdict of default verify is decided far from rounding.

    The verdicts compare their two sides with no tolerance.  That is safe
    because a zero margin occurs only in the four exact kinds above, and
    every other margin exceeds 10**6 roundings of its larger side: |bound|
    for a bound row, sqrt(n) for the sqrt split, max(|lhs|, |rhs|) for the
    analytic rows.  The odd-part remark is held to it at every grid point,
    witness or not.  A grid change that brings a row nearer than that
    fails here: such a row needs an exact or certified verdict, not a float
    comparison.
    """
    rows = sweeps.run_verify(sweeps.SweepConfig()).rows
    near = []
    zeros = 0
    for row in rows:
        if "slack" in row:  # theorem1, erdos, chain and rpoly rows
            if row["slack"] is None:
                continue
            margin, scale = row["slack"], abs(row["bound"])
        elif row["check"] == "sqrt-split":
            margin, scale = row["margin"], math.sqrt(row["n"])
        elif row["check"] in ("eq2", "eq3", "sinh", "odd-remark", *ENVELOPE_CHECKS):
            margin, scale = row["margin"], max(abs(row["lhs"]), abs(row["rhs"]))
        else:
            continue
        if margin == 0 and _exact_zero(row):
            zeros += 1
        elif not margin > HEADROOM * scale:
            near.append(row)
    for x in series.default_x_grid():
        lhs, rhs = series.kernel_sides(2, (-1,), x)
        if not abs(lhs - rhs) > HEADROOM * max(lhs, rhs):
            near.append({"check": "odd-remark", "x": x, "lhs": lhs, "rhs": rhs})
    assert near == []
    # bound rows at n = 0: 30 specs each for theorem1, chain and rpoly, and
    # erdos's one; eq3 with R empty at 201 points for each of 4 moduli; with
    # r = 0, per modulus, 201 envelope-cap rows, 202 derivative rows (x = 0
    # included) and the at-zero row; with r >= 1 (6 residues), the
    # derivative and at-zero rows at x = 0
    assert zeros == (3 * 30 + 1) + 4 * 201 + 4 * (201 + 202 + 1) + 6 * 2
