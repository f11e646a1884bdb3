"""partlab benchmark: CLI workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 partbench/run.py --workload verify-default --seed 1 --seconds 45 --trace 0

With --trace 0 it measures what a user of `python -m partlab ...` waits
for.  One closed-loop client runs the workload's command as a subprocess,
one at a time, until the next command would end after --seconds (at least
once), and reports medians over those commands:

    wall_s        wall time of one command
    cpu_s         user + system CPU time of the command's process tree
    peak_rss_mb   peak RSS of the largest process in that tree
    setup_s       median over runs of `partlab --help`, PROBES_PER_COMMAND
                  before each command (interpreter start, import partlab,
                  parser build)
    success_rate  1 - error_rate: the share of commands whose exit code,
                  report digest and value checks all passed

With --trace 1 it runs the command once untraced, then once in this
process with 1 worker and partlab's public functions wrapped (see
layertrace.py), and for verify workloads times run_verify at 1 and 2 workers.
It reports the per-layer metrics of layertrace.layer_metrics.

The seed only changes how the command line is spelled: the order of the
options, the order inside comma-separated lists, and which default-valued
options are written out.  Every seed does the same work and must print
byte-identical reports.  The run record (one JSON line before the result
line, also written to .partbench/) holds the environment, every command's
figures and the within-run spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import layertrace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".partbench"

# PARTLAB_THREADS for every command, so wider machines run the same work.
# On a 2-vCPU VM shared with other tenants, verify-default at 2 workers was
# no faster than at 1 (median 4.11 s vs 3.97 s over 6 interleaved runs) and
# twice as noisy (spread 0.23 vs 0.11), so the end-to-end runs use the serial
# path and the traced run times the pool on its own (sweeps.pool_speedup).
WORKERS = 1
PROBES_PER_COMMAND = 2
RUN_DEADLINE_S = 170.0  # a command still running then is killed and counted as failed

# Figures from ROADMAP's baseline that the verify-bounds records replace.
ROADMAP_BASELINE = {
    "verify_bounds_rows": "186k (the m<=5 count; m<=6 gives 378,378)",
    "verify_bounds_size": "147 MB (size of the JSON text, not peak RSS)",
    "pool_1_vs_2_workers_s": [26.9, 31.4],
    "two_workers_beat_one": False,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    options: tuple[tuple[str, str], ...]
    optional: tuple[tuple[str, str], ...] = ()  # defaults a seed may spell out
    lists: tuple[str, ...] = ()  # options whose comma list a seed may permute
    digest: str = ""  # sha256 of stdout, captured from the seed code
    verify_rows: dict[str, int] = field(default_factory=dict)
    p_n: int = 0  # largest n whose p(n) the gate needs

    def argv(self, seed: int) -> list[str]:
        rng = random.Random(f"{self.name}:{seed}")
        pairs = list(self.options) + [o for o in self.optional if rng.random() < 0.5]
        spelled = []
        for flag, value in pairs:
            if flag in self.lists:
                items = value.split(",")
                rng.shuffle(items)
                value = ",".join(items)
            spelled.append((flag, value))
        rng.shuffle(spelled)
        return [self.command] + [tok for pair in spelled for tok in pair]

    def check(self, code: int, stdout: bytes, stderr: str, p: list[int]) -> list[str]:
        problems = gate.check_exit(code) + gate.check_digest(stdout, self.digest)
        if self.verify_rows:
            problems += gate.check_verify_status(stderr, self.verify_rows)
        if self.command == "count":
            problems += gate.check_count_output(stdout, self.p_n, p)
        if self.command == "table":
            problems += gate.check_table_p_a(stdout, self.p_n, p)
        return problems


# BENCHMARK.json runs verify-default and table-wide.  verify-bounds and
# count-deep stay runnable by name: on a 2-vCPU VM shared with other tenants
# their memory-bound commands (1.8 GB and 530 MB peak RSS) swung by 25-50%
# between 20-50 s runs, beyond any bound the benchmark may set.
ALL_CHECKS = "counts,theorem1,erdos,chain,rpoly,eq1,eq2,eq3,helpers,remark,ratio"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-default",
            command="verify",
            options=(),
            optional=(("--checks", ALL_CHECKS), ("--m-max", "4"), ("--n-max", "300"), ("--format", "json")),
            lists=("--checks",),
            digest="6ed9da59ec7f95f89a362a1fb822e52d7e0ba164870d916fca1a99fd060d25b8",
            verify_rows={
                "counts": 90,
                "theorem1": 9030,
                "erdos": 301,
                "chain": 9030,
                "rpoly": 9030,
                "eq1": 570,
                "eq2": 2010,
                "eq3": 6030,
                "helpers": 4441,
                "remark": 138,
                "ratio": 90,
            },
        ),
        Workload(
            name="verify-bounds",
            command="verify",
            options=(("--checks", "theorem1,chain,rpoly"), ("--m-max", "6"), ("--n-max", "1000")),
            optional=(("--format", "json"),),
            lists=("--checks",),
            digest="2c7a6918c26886521f93ab6abf961988eaaf2234a0e0f073d054bee378798dbb",
            verify_rows={"theorem1": 126126, "chain": 126126, "rpoly": 126126},
        ),
        Workload(
            name="table-wide",
            command="table",
            options=(("--m", "6"), ("--r", "0,1,2,3,4,5"), ("--n-max", "10000"), ("--format", "csv")),
            lists=("--r",),
            digest="145d642c1141ab687e5c04611ada4632a0da866508523d61b1faf6b9139a2116",
            p_n=10000,
        ),
        Workload(
            name="count-deep",
            command="count",
            options=(("--m", "1"), ("--r", "0"), ("--n", "4000")),
            optional=(("--variant", "full-a"),),
            digest="6495a630b4bc921352919933698f526f9f9ce98f209a227a8399fe3dc1a9cf1e",
            p_n=4000,
        ),
    )
}


@dataclass
class Command:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]

    def as_record(self) -> dict:
        return dict(self.__dict__)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PARTLAB_THREADS=str(WORKERS))


def run_command(argv: list[str], deadline: float) -> tuple[Command, bytes, str]:
    """Run `python -m partlab argv` once; time it with wait4 on the child."""
    stdout_path, stderr_path = OUT / "stdout", OUT / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "partlab", *argv],
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        _, status, usage = _wait_with_deadline(proc, deadline)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    stdout = stdout_path.read_bytes()
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    stdout_path.unlink()
    stderr_path.unlink()
    cmd = Command(
        argv=argv,
        code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        problems=[],
    )
    return cmd, stdout, stderr


def _wait_with_deadline(proc: subprocess.Popen, deadline: float):
    """os.wait4 on the child, killing it if the run's deadline passes."""

    def on_alarm(signum, frame):
        proc.kill()

    remaining = deadline - time.monotonic()
    if remaining <= 0:
        proc.kill()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))
    try:
        return os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _spread(values: list[float]) -> float:
    """(max - min) / median of one run's commands; 0 with a single command."""
    return (max(values) - min(values)) / statistics.median(values) if len(values) > 1 else 0.0


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "partlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    have_gmpy2 = None
    try:
        probe = subprocess.run(
            [sys.executable, "-c", "from partlab import packed; print(packed.HAVE_GMPY2)"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, check=True,
        )
        have_gmpy2 = probe.stdout.strip() == "True"
    except subprocess.CalledProcessError:
        pass  # packed module gone or broken; recorded as unknown
    return {
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "have_gmpy2": have_gmpy2,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def end_to_end_metrics(commands: list[Command], probes: list[Command], error_rate: float) -> dict:
    """The end-to-end metrics of one run, as {name: (value, unit)}."""
    return {
        "wall_s": (statistics.median(c.wall_s for c in commands), "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in commands), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in commands), "MB"),
        "setup_s": (statistics.median(c.wall_s for c in probes), "s"),
        "success_rate": (1 - error_rate, "ratio"),
    }


def measure(w: Workload, seed: int, seconds: float, p: list[int], deadline: float) -> tuple[dict, dict]:
    """Closed-loop end-to-end run; returns (result, record)."""
    argv = w.argv(seed)
    probes: list[Command] = []
    commands: list[Command] = []
    start = time.perf_counter()
    while True:
        # Set-up probes are interleaved with the commands so both sample the
        # same machine conditions.
        for _ in range(PROBES_PER_COMMAND):
            probe, stdout, _ = run_command(["--help"], deadline)
            probe.problems = gate.check_exit(probe.code) + ([] if b"usage" in stdout else ["no usage text"])
            probes.append(probe)
        cmd, stdout, stderr = run_command(argv, deadline)
        cmd.problems = w.check(cmd.code, stdout, stderr, p)
        commands.append(cmd)
        elapsed = time.perf_counter() - start
        typical = statistics.median(c.wall_s for c in commands)
        if elapsed + typical > seconds or time.monotonic() + typical > deadline:
            break
    everything = probes + commands
    failed = sum(1 for c in everything if c.problems)
    result = {"correct": failed == 0, "attempted": len(everything), "failed": failed}
    error_rate = failed / len(everything)
    metrics = end_to_end_metrics(commands, probes, error_rate)
    walls = [c.wall_s for c in commands]
    cpus = [c.cpu_s for c in commands]
    record = {
        "argv": argv,
        "commands": [c.as_record() for c in commands],
        "setup_probes_s": [c.wall_s for c in probes],
        "spread": {"wall_s": _spread(walls), "cpu_s": _spread(cpus)},
        "error_rate": error_rate,
    }
    if w.name == "verify-bounds":
        record["roadmap_baseline"] = ROADMAP_BASELINE
        record["measured"] = {
            "verify_bounds_rows": sum(w.verify_rows.values()),
            "peak_rss_mb": metrics["peak_rss_mb"][0],
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, record


def measure_traced(w: Workload, seed: int, p: list[int], deadline: float) -> tuple[dict, dict]:
    """One traced in-process command, one untraced command, pool timing.

    The traced run goes first, while this process's peak RSS is still low,
    so the rss_growth figures see all of the command's growth.
    """
    argv = w.argv(seed)
    traced_path = OUT / "traced-stdout"
    traced = layertrace.traced_main(str(SRC), argv, str(traced_path))
    output_bytes = traced_path.stat().st_size
    traced_problems = w.check(traced["code"], traced_path.read_bytes(), traced["stderr"], p)
    traced_path.unlink()
    tracer = traced["tracer"]

    untraced, stdout, stderr = run_command(argv, deadline)
    untraced.problems = w.check(untraced.code, stdout, stderr, p)

    pool, pool_problems = None, []
    if w.command == "verify":
        try:
            pool = layertrace.pool_speedup(str(SRC), tracer.last_verify_config)
        except Exception as exc:  # e.g. a changed run_verify API: report, keep the trace
            pool_problems = [f"pool timing failed: {exc!r}"]
        else:
            if not pool["ok"]:
                pool_problems = ["run_verify reported a failing check"]

    metrics = layertrace.layer_metrics(tracer, output_bytes, pool, untraced.wall_s)
    main_s = metrics["cli.main_s"][0]
    self_sum = sum(tracer.layer_self_s.values())
    problems = [untraced.problems, traced_problems]
    if w.command == "verify":
        problems.append(pool_problems)
    failed = sum(1 for ps in problems if ps)
    spans_path = OUT / f"trace-{w.name}-s{seed}.json"
    spans_path.write_text(
        json.dumps({"columns": ["id", "name", "start", "end", "parent"], "spans": tracer.spans,
                    "span_total": tracer.span_total})
    )
    record = {
        "argv": argv,
        "untraced": untraced.as_record(),
        "traced_problems": traced_problems,
        "pool": pool,
        "pool_problems": pool_problems,
        "missing_targets": traced["missing"],
        "layer_self_s": dict(tracer.layer_self_s),
        "self_sum_s": self_sum,
        "self_sum_gap_s": main_s - self_sum,
        "overhead_s": metrics["trace.overhead_s"][0],
        "self_sum_within_overhead": abs(main_s - self_sum) <= abs(metrics["trace.overhead_s"][0]),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_total": tracer.span_total,
        "error_rate": failed / len(problems),
    }
    if w.name == "verify-bounds" and pool:
        record["roadmap_baseline"] = ROADMAP_BASELINE
        record["measured"] = {
            "pool_1_vs_2_workers_s": [pool["t1_s"], pool["t2_s"]],
            "two_workers_beat_one": pool["t2_s"] < pool["t1_s"],
        }
    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "partlab" / "cli.py").is_file():
        sys.stderr.write(f"error: no partlab sources under {SRC}; run from a full checkout\n")
        return 2
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    p = gate.partition_numbers(w.p_n)
    env = environment()
    if args.trace:
        result, record = measure_traced(w, args.seed, p, deadline)
    else:
        result, record = measure(w, args.seed, args.seconds, p, deadline)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **record}
    (OUT / f"record-{w.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
