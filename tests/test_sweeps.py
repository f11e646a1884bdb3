"""Sweep drivers: one table per (spec, variant), the shared oracle cache, the pool, the fold,
the streamed sweep."""

import concurrent.futures
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from partlab import bounds, counting, sweeps
from partlab.partset import A_PLUS, FULL_A, make_residue_spec


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


def test_each_table_is_built_once_per_spec(monkeypatch):
    """Default verify builds one factory per modulus and asks it once per (spec, variant).

    The counts oracle certifies all three tables of every spec, and
    theorem1, erdos, chain, ratio and rpoly read those same objects, so no
    table is asked for twice.
    """
    factories = []
    calls = []
    real_init = counting.TableFactory.__init__
    real_table = counting.TableFactory.table

    def counting_init(self, n_max):
        factories.append(n_max)
        real_init(self, n_max)

    def recording(self, spec, variant):
        calls.append((spec, variant))
        return real_table(self, spec, variant)

    monkeypatch.setattr(counting.TableFactory, "__init__", counting_init)
    monkeypatch.setattr(counting.TableFactory, "table", recording)
    result = sweeps.run_verify(sweeps.SweepConfig())
    assert result.ok
    assert factories == [300] * 4
    assert len(calls) == 90
    assert set(calls) == {
        (spec, variant)
        for m in range(1, 5)
        for spec in sweeps.subsets_for_modulus(m)
        for variant in sweeps.SWEEP_VARIANTS
    }


def test_serial_run_imports_no_pool():
    """No command loads the process pool's module or multiprocessing, on any machine."""
    code = (
        "import sys; from partlab import cli; "
        "assert cli.main(['verify', '--checks', 'theorem1,remark', '--m-max', '2', "
        "'--n-max', '10', '--output', '-']) == 0; "
        "assert cli.main(['sweep', '--m-max', '2', '--n-max', '10']) == 0; "
        "assert cli.main(['table', '--m', '2', '--r', '1', '--n-max', '10']) == 0; "
        "assert cli.main(['count', '--m', '2', '--r', '1', '--n', '10']) == 0; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_pool_tasks_are_queued_before_the_counts_oracle(monkeypatch):
    """With workers > 1 the per-modulus tasks, counts oracle included, give the serial rows."""

    class PicklingPool:
        """Runs each task on its own pickled copy, as a process pool does."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(pickle.loads(pickle.dumps(t))) for t in tasks]

    config = sweeps.SweepConfig(m_max=3, n_max=20, checks=("counts", "theorem1"))
    serial = sweeps.run_verify(config)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    pooled = sweeps.run_verify(replace(config, workers=2))
    assert pooled.rows == serial.rows


def test_sweep_refuses_negative_n_max_before_any_task(monkeypatch):
    """sweep_rows refuses bad input at the call, before any factory is built.

    Its rows then come lazily: one factory per modulus, built as the rows
    are read, and the same rows as a list built modulus by modulus.
    """
    expected = [
        {"m": m, "R": list(spec.residues), **row}
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
