"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 partbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import layertrace  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class PartitionNumbers(unittest.TestCase):
    def test_known_values(self):
        p = gate.partition_numbers(100)
        self.assertEqual(p[:11], [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])
        self.assertEqual(p[100], 190569292)


class MetricNames(unittest.TestCase):
    def test_charset_and_uniqueness(self):
        entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
        names = [e["name"] for e in entries]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)

    def test_spec_matches_what_the_runs_print(self):
        probe = run.Command(["--help"], 0, 0.1, 0.1, 20.0, [])
        printed = run.end_to_end_metrics([probe], [probe], 0.0)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         {k: u for k, (_, u) in printed.items()})
        printed = layertrace.layer_metrics(layertrace.Tracer(), 0, None, 0.0)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         {k: u for k, (_, u) in printed.items()})
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.w = run.WORKLOADS["count-deep"]
        self.p = gate.partition_numbers(self.w.p_n)
        # The seed's exact report, rebuilt from the independent p(4000).
        self.report = json.dumps(
            {"n": 4000, "count": str(self.p[4000]), "engines_agree": True}
        ).encode() + b"\n"

    def test_accepts_the_seed_report(self):
        self.assertEqual(self.w.check(0, self.report, "", self.p), [])

    def test_rejects_a_corrupted_report(self):
        corrupted = self.report.replace(b'"1024', b'"1025', 1)
        problems = self.w.check(0, corrupted, "", self.p)
        self.assertTrue(any("sha256" in p for p in problems))
        self.assertTrue(any("p(4000)" in p for p in problems))

    def test_rejects_a_bad_exit_code(self):
        self.assertEqual(self.w.check(1, self.report, "", self.p), ["exit code 1, expected 0"])

    def test_verify_status_lines(self):
        rows = run.WORKLOADS["verify-bounds"].verify_rows
        good = "".join(
            f"check={name} rows={n} failures=0 worst_margin=0.0 status=ok\n" for name, n in rows.items()
        )
        self.assertEqual(gate.check_verify_status(good, rows), [])
        short = good.replace("rows=126126", "rows=126125", 1)
        self.assertEqual(len(gate.check_verify_status(short, rows)), 1)
        failing = good.replace("status=ok", "status=FAIL", 1)
        self.assertEqual(len(gate.check_verify_status(failing, rows)), 1)
        self.assertEqual(len(gate.check_verify_status("", rows)), len(rows))

    def test_table_column_against_p(self):
        csv = "n,p_a\n" + "".join(f"{n},{v}\n" for n, v in enumerate(self.p[:11]))
        self.assertEqual(gate.check_table_p_a(csv.encode(), 10, self.p), [])
        self.assertEqual(len(gate.check_table_p_a(csv.replace("7,15", "7,16").encode(), 10, self.p)), 1)


class Spelling(unittest.TestCase):
    def test_seed_changes_spelling_not_meaning(self):
        w = run.WORKLOADS["table-wide"]
        self.assertEqual(w.argv(7), w.argv(7))
        spellings = {tuple(w.argv(seed)) for seed in range(20)}
        self.assertGreater(len(spellings), 1)
        for argv in spellings:
            pairs = dict(zip(argv[1::2], argv[2::2]))
            self.assertEqual(sorted(pairs["--r"].split(",")), list("012345"))
            self.assertEqual(pairs["--n-max"], "10000")


if __name__ == "__main__":
    unittest.main()
