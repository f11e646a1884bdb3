"""Sweep drivers: one table per (spec, variant), the shared oracle cache, the pool."""

import concurrent.futures
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from partlab import counting, sweeps
from partlab.bounds import asymptotic_ratio
from partlab.partset import make_residue_spec


def test_one_oracle_walk_per_distinct_part_list(monkeypatch):
    """Default verify's counts check walks each (part list, n) once, across all m."""
    walks = []
    real = sweeps.count_bruteforce

    def recording(parts, n, **kwargs):
        walks.append((tuple(parts), n))
        return real(parts, n, **kwargs)

    monkeypatch.setattr(sweeps, "count_bruteforce", recording)
    result = sweeps.run_verify(sweeps.SweepConfig(checks=("counts",)))
    assert result.ok
    assert len(result.rows) == 90
    assert len(walks) == 51
    assert len(set(walks)) == 51


def test_each_table_is_built_once_per_spec(monkeypatch):
    """Default verify builds one factory per modulus and each spec's tables once.

    The counts oracle certifies the same full-set and head tables that chain,
    ratio and rpoly read, so no second factory builds them again.  The tail
    table is asked for by theorem1 for each spec and by erdos for m = 1;
    the full-set table reads the cached tail values, not the tail table.
    """
    calls = {"factories": 0, "aplus": [], "full_a": [], "rplus": []}
    real_init = counting.TableFactory.__init__

    def counting_init(self, n_max):
        calls["factories"] += 1
        real_init(self, n_max)

    def recording(name):
        real = getattr(counting.TableFactory, name)

        def method(self, spec):
            calls[name].append(spec)
            return real(self, spec)

        return method

    monkeypatch.setattr(counting.TableFactory, "__init__", counting_init)
    for name in ("aplus", "full_a", "rplus"):
        monkeypatch.setattr(counting.TableFactory, name, recording(name))
    result = sweeps.run_verify(sweeps.SweepConfig())
    assert result.ok
    assert calls["factories"] == 4
    assert len(calls["aplus"]) == 31
    assert len(set(calls["aplus"])) == 30
    for name in ("full_a", "rplus"):
        assert len(calls[name]) == 30
        assert len(set(calls[name])) == 30


def test_serial_run_imports_no_pool():
    """One worker never loads the process pool's module or multiprocessing."""
    code = (
        "import sys; from partlab import cli; "
        "assert cli.main(['verify', '--checks', 'theorem1,remark', '--m-max', '2', "
        "'--n-max', '10', '--output', '-']) == 0; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src), "PARTLAB_THREADS": "1"},
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


def test_table_ratio_is_asymptotic_ratio():
    """table_rows' ratio column is bit-for-bit asymptotic_ratio of the full count."""
    for m, residues in [(1, [0]), (2, [1]), (3, [0, 2]), (4, [1, 2, 3])]:
        spec = make_residue_spec(m, residues)
        rows = sweeps.table_rows(spec, 120)
        for row in rows:
            n, count = row["n"], int(row["p_a"])
            expected = asymptotic_ratio(spec, n, count=count) if n >= 1 and count >= 1 else None
            assert row["ratio"] == expected
