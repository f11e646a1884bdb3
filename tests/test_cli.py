"""Command-line behavior: subcommands, exit codes, determinism."""

import concurrent.futures
import hashlib
import json

import pytest

from _oracle import count_dp
from partlab import bounds, counting, sweeps
from partlab.cli import main
from partlab.counting import CountTable
from partlab.partset import A_PLUS, FULL_A, make_residue_spec, parts_up_to


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_classical_tail(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--m", "1", "--r", "0", "--variant", "a-plus", "--n", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 5, "count": "7", "engines_agree": True}

    def test_odd_full_set(self, capsys):
        code, out, _ = run_cli(capsys, ["count", "--m", "2", "--r", "1", "--variant", "full-a", "--n", "5"])
        assert code == 0
        assert json.loads(out)["count"] == "3"

    def test_residue_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, ["count", "--m", "2", "--r", "3", "--variant", "full-a", "--n", "5"])
        assert code == 2
        assert "out of range" in err

    def test_bad_residue_text(self, capsys):
        code, _, _ = run_cli(capsys, ["count", "--m", "2", "--r", "x", "--variant", "full-a", "--n", "5"])
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["count", "--bogus", "1"])
        assert code == 2

    def test_unrestricted_p100(self, capsys):
        # Every positive integer is the full set of m=1, R={0}
        code, out, _ = run_cli(capsys, ["count", "--m", "1", "--r", "0", "--n", "100"])
        assert code == 0
        assert json.loads(out) == {"n": 100, "count": "190569292", "engines_agree": True}

    def test_unrestricted_p2000(self, capsys):
        """p(2000) needs more than 64 bits, so the identity packs slots wider than 8 bytes."""
        code, out, _ = run_cli(capsys, ["count", "--m", "1", "--r", "0", "--n", "2000"])
        p2000 = 4720819175619413888601432406799959512200344166
        assert p2000.bit_length() > 64
        assert code == 0
        assert json.loads(out) == {"n": 2000, "count": str(p2000), "engines_agree": True}

    @pytest.mark.parametrize("variant", ["full-a", "a-plus", "r-plus"])
    def test_each_variant_matches_the_oracle(self, capsys, variant):
        argv = ["count", "--m", "3", "--r", "0,2", "--variant", variant, "--n", "60"]
        code, out, _ = run_cli(capsys, argv)
        parts = parts_up_to(make_residue_spec(3, [0, 2]), variant, 60)
        assert code == 0
        assert json.loads(out) == {
            "n": 60,
            "count": str(count_dp(parts, 60)[60]),
            "engines_agree": True,
        }

    def test_wrong_factory_kernel_fails(self, capsys, monkeypatch):
        """count's first engine is the factory: a kernel that skips the last total disagrees."""

        def skip_last(values, a):
            for j in range(a, len(values) - 1):
                values[j] += values[j - a]

        monkeypatch.setattr(counting, "_add_part", skip_last)
        code, out, _ = run_cli(capsys, ["count", "--m", "2", "--r", "1", "--n", "50"])
        assert code == 1
        assert json.loads(out)["engines_agree"] is False

    def test_walk_certifies_below_the_cap(self, capsys, monkeypatch):
        """count runs verify's certification: a walk off at n = 40 fails it."""
        real = counting.count_bruteforce

        def off_at_cap(parts, n):
            values = list(real(parts, n))
            values[40] += 1
            return tuple(values)

        monkeypatch.setattr(counting, "count_bruteforce", off_at_cap)
        code, out, _ = run_cli(capsys, ["count", "--m", "1", "--r", "0", "--n", "100"])
        assert code == 1
        assert json.loads(out) == {"n": 100, "count": "190569292", "engines_agree": False}

    def test_variant_outside_the_three_sets(self, capsys):
        code, out, _ = run_cli(
            capsys, ["count", "--m", "1", "--r", "0", "--variant", "all-naturals", "--n", "5"]
        )
        assert code == 2
        assert out == ""


class TestTable:
    def test_p10_row(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--m", "1", "--r", "0", "--n-max", "10", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12  # header + 11 rows
        last = lines[-1].split(",")
        assert last[0] == "10"
        assert last[1] == "42"

    def test_single_row_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--m", "2", "--r", "1", "--n-max", "0", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert (row["p_a"], row["p_a_plus"], row["p_r_plus"]) == ("1", "1", "1")
        assert row["ratio"] is None

    def test_empty_residues(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--m", "3", "--r", "", "--n-max", "5", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [r["p_a"] for r in doc["rows"]] == ["1", "0", "0", "0", "0", "0"]
        assert all(r["slack"] is None for r in doc["rows"][1:])

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            ["table", "--m", "2", "--r", "1", "--n-max", "5", "--format", "csv", "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0].startswith("n,p_a")

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "table.csv"
        code, _, err = run_cli(
            capsys,
            ["table", "--m", "2", "--r", "1", "--n-max", "5", "--output", str(target)],
        )
        assert code == 2
        assert "output error" in err

    def test_rejects_all_sentinel(self, capsys):
        code, _, _ = run_cli(capsys, ["table", "--m", "2", "--r", "all", "--n-max", "5"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["table", "--m", "2", "--r", "1", "--n-max", "-1"], ["sweep", "--m-max", "2", "--n-max", "-1"]],
    )
    def test_rejects_negative_n_max(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: n_max must be >= 0, got -1\n"


class TestVerify:
    def test_remark_finding_is_success(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--checks", "remark"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summaries"][0]["name"] == "remark"
        assert doc["summaries"][0]["rows"] > 0
        assert any(row["x"] == 1.0 for row in doc["rows"])
        assert "status=ok" in err

    def test_theorem_sweep(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["verify", "--checks", "theorem1", "--m-max", "3", "--n-max", "200", "--output", "/dev/null"],
        )
        assert code == 0
        assert "check=theorem1" in err

    def test_eq1_sweep(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "--checks", "eq1", "--m-max", "3", "--output", "/dev/null"]
        )
        assert code == 0
        assert "failures=0" in err

    def test_multi_check_small_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--checks", "counts,chain,rpoly,eq2,eq3,helpers,ratio,erdos", "--m-max", "2", "--n-max", "60"],
        )
        assert code == 0
        doc = json.loads(out)
        names = [s["name"] for s in doc["summaries"]]
        # registry order is fixed regardless of the order given on the command line
        assert names == ["counts", "erdos", "chain", "rpoly", "eq2", "eq3", "helpers", "ratio"]

    @pytest.mark.parametrize("argv", [["verify", "--checks", ""]])
    def test_empty_selection_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "verify: OK" not in err

    def test_check_without_rows_fails(self, capsys):
        # ratio has no checkpoint at n_max = 0, so it checks nothing
        code, _, err = run_cli(
            capsys, ["verify", "--checks", "ratio,theorem1", "--m-max", "1", "--n-max", "0"]
        )
        assert code == 1
        assert "check=ratio rows=0 failures=0 worst_margin=- status=FAIL" in err
        assert "check=theorem1 rows=2 failures=0 worst_margin=0.0 status=ok" in err
        assert "verify: FAILED" in err

    def test_zero_row_report_digest(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--checks", "ratio", "--m-max", "1", "--n-max", "0"])
        assert code == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "948fbc43502e018258350ba0cbe85fa704916bda68838acf7730df54c00bf6d7"
        )

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["verify", "--m-max", "2", "--n-max", "30"]
        target = tmp_path / "report.json"
        code, to_file, _ = run_cli(capsys, argv + ["--output", str(target)])
        assert (code, to_file) == (0, "")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("wrong_at", [0, 23, 39])
    def test_oracle_checks_every_n_below_cap(self, capsys, monkeypatch, wrong_at):
        """Wrong factory tables that the identity is made to pass still fail the walk below the cap."""

        def corrupt(values):
            values = list(values)
            values[wrong_at] += 1
            return tuple(values)

        class CorruptedFactory:
            def __init__(self, n_max):
                self.real = counting.TableFactory(n_max)

            def table(self, spec, variant):
                table = self.real.table(spec, variant)
                return CountTable(spec, variant, corrupt(table.values))

        monkeypatch.setattr(sweeps, "TableFactory", CorruptedFactory)
        monkeypatch.setattr(counting, "recurrence_holds", lambda values, parts: True)
        code, out, err = run_cli(capsys, ["verify", "--checks", "counts", "--m-max", "2", "--n-max", "60"])
        assert code == 1
        doc = json.loads(out)
        assert doc["rows"] and all(row["holds"] is False for row in doc["rows"])
        assert doc["summaries"][0]["holds"] is False
        assert "verify: FAILED" in err

    def test_oracle_checks_the_factory_tables(self, capsys, monkeypatch):
        """p(n) off by one at n = 150 fails the rows whose tables start from it, and only those."""
        real = counting._partition_numbers

        def off_by_one(n):
            values = real(n)
            values[150] += 1
            return values

        monkeypatch.setattr(counting, "_partition_numbers", off_by_one)
        code, out, err = run_cli(capsys, ["verify", "--checks", "counts"])
        assert code == 1
        doc = json.loads(out)
        assert len(doc["rows"]) == 90
        failed = {(row["m"], tuple(row["R"]), row["variant"]) for row in doc["rows"] if not row["holds"]}
        assert failed == {
            (m, tuple(range(m)), variant) for m in range(1, 5) for variant in ("full-a", "a-plus")
        }
        assert "check=counts rows=90 failures=8 " in err
        assert "verify: FAILED" in err

    def test_oracle_compares_factory_tables_on_cache_hits(self, capsys, monkeypatch):
        """A wrong full-R table of m >= 2 fails its full-a row, whose part list m = 1 cached."""
        real = counting._remove_part

        def off_by_one(values, a):
            real(values, a)
            if a == 1:
                values[150] += 1

        monkeypatch.setattr(counting, "_remove_part", off_by_one)
        code, out, _ = run_cli(capsys, ["verify", "--checks", "counts"])
        assert code == 1
        doc = json.loads(out)
        failed = {(row["m"], tuple(row["R"]), row["variant"]) for row in doc["rows"] if not row["holds"]}
        assert failed == {
            (m, tuple(range(m)), variant) for m in range(2, 5) for variant in ("full-a", "a-plus")
        }

    def test_erdos_reads_the_factory_table(self, capsys, monkeypatch):
        """A p(n) table over the classical bound at its last n fails erdos (and theorem1)."""
        real = counting._partition_numbers

        def too_large(n):
            values = real(n)
            values[n] = 10**20  # log is 46.1, above pi*sqrt(2*150/3) = 31.4
            return values

        monkeypatch.setattr(counting, "_partition_numbers", too_large)
        argv = ["verify", "--checks", "erdos", "--m-max", "1", "--n-max", "150"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "check=erdos rows=151 failures=1 " in err

    def test_theorem1_given_the_full_set_table_fails(self, capsys, monkeypatch):
        """Wiring theorem1 to the full-a table is an integrity failure, not a pass.

        The full set obeys the tail bound on the default grid too, so only
        the table's own label can tell that theorem1 read the wrong counts.
        """
        real = bounds.check_theorem1
        factory = counting.TableFactory(300)
        monkeypatch.setattr(
            bounds, "check_theorem1", lambda table: real(factory.table(table.spec, FULL_A))
        )
        code, out, err = run_cli(capsys, ["verify"])
        assert code == 1
        assert out == ""
        assert "integrity failure" in err and "handed the full-a table" in err

    def test_full_set_counts_labelled_as_the_tail_set_fail(self, capsys, monkeypatch):
        """Full-set counts labelled a-plus pass theorem1; the counts check fails them."""
        real = counting.TableFactory.table

        def mislabelled(self, spec, variant):
            if variant == A_PLUS:
                return CountTable(spec, A_PLUS, real(self, spec, FULL_A).values)
            return real(self, spec, variant)

        monkeypatch.setattr(counting.TableFactory, "table", mislabelled)
        code, out, err = run_cli(capsys, ["verify"])
        assert code == 1
        rows = json.loads(out)["rows"]
        failed = {(r["check"], r["m"], tuple(r["R"]), r["variant"]) for r in rows if not r["holds"]}
        # exactly the specs with a head part, whose full and tail sets differ
        assert failed == {
            ("counts", m, spec.residues, A_PLUS)
            for m in range(1, 5)
            for spec in sweeps.subsets_for_modulus(m)
            if any(spec.residues)
        }
        assert "check=theorem1 rows=9030 failures=0 " in err
        assert "verify: FAILED" in err

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--checks", "nonsense"])
        assert code == 2
        assert "unknown check" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--checks", "theorem1", "--m-max", "2", "--n-max", "30", "--format", "csv"],
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("check,m,R,variant,n,count")


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        argv = ["verify", "--checks", "theorem1,eq3", "--m-max", "2", "--n-max", "40"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys, monkeypatch):
        """verify through the two-worker pool prints the bytes of the one-process run."""
        argv = ["verify", "--checks", "counts,theorem1,chain", "--m-max", "3", "--n-max", "60"]
        _, serial, _ = run_cli(capsys, argv)
        real = sweeps.SweepConfig
        used = []

        def pooled(**fields):
            used.append(2)
            return real(**fields, workers=2)

        monkeypatch.setattr(sweeps, "SweepConfig", pooled)
        _, parallel, _ = run_cli(capsys, argv)
        assert used == [2]
        assert serial == parallel

    def test_json_and_csv_values_match(self, capsys):
        base = ["verify", "--checks", "theorem1", "--m-max", "2", "--n-max", "25"]
        _, json_out, _ = run_cli(capsys, base + ["--format", "json"])
        _, csv_out, _ = run_cli(capsys, base + ["--format", "csv"])
        doc = json.loads(json_out)
        csv_lines = csv_out.splitlines()
        header = csv_lines[0].split(",")
        assert len(csv_lines) - 1 == len(doc["rows"])
        for json_row, line in zip(doc["rows"], csv_lines[1:]):
            cells = dict(zip(header, line.split(",")))
            assert cells["count"] == json_row["count"]
            assert (cells["slack"] == "") == (json_row["slack"] is None)
            if json_row["slack"] is not None:
                assert float(cells["slack"]) == json_row["slack"]
            assert cells["holds"] == ("true" if json_row["holds"] else "false")


class TestGoldens:
    """stdout digests captured from earlier builds.

    The table/sweep digests predate the slice-DP table factory; the verify
    digests predate the single canonicalization pass and the variant labels;
    the JSON sweep digest predates the streamed report writer; the n=10^4
    table digest predates the pentagonal start of dense tail tables.
    """

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["table", "--m", "6", "--r", "0,1,2,3,4,5", "--n-max", "600", "--format", "csv"],
                "d1bc1e9cbb138dc9309b2e5e857513d505ae046c0569ab131ecb2947381feb8f",
            ),
            (
                ["table", "--m", "5", "--r", "1,3", "--n-max", "600", "--format", "json"],
                "0431aa7fc0815e4b1dd10c659728d623ca2ee9e34c68d68fb3ded2e1df2b29ec",
            ),
            (
                ["table", "--m", "7", "--r", "0,2,3,6", "--n-max", "600", "--format", "csv"],
                "37f6e91684fe31cbe55cc9502b586653a0cf7605a3439d876d661c94faae13c5",
            ),
            (
                ["sweep", "--m-max", "4", "--n-max", "200", "--format", "csv"],
                "2d0cc301766dcff972fab292bb20a27cc4d81bef3d690e3ab00e2d91f2be0c45",
            ),
            (
                ["verify", "--m-max", "3", "--n-max", "60"],
                "9e5f0b3bc907cfdef5d457758bf5f8f2c2d0c78498a802e587b166669f76bb68",
            ),
            (
                ["verify", "--m-max", "3", "--n-max", "60", "--format", "csv"],
                "95f704441cace8be5530a8730b23ad367530efd6365e6f9e8533d7e303481d83",
            ),
            (
                ["sweep", "--m-max", "3", "--n-max", "50", "--format", "json"],
                "80903e8e1a2fc9fe2228979ce32aca46eb5c02a47252f602d49af8aeb36d23e3",
            ),
            (
                ["table", "--m", "6", "--r", "0,1,2,3,4,5", "--n-max", "10000", "--format", "csv"],
                "145d642c1141ab687e5c04611ada4632a0da866508523d61b1faf6b9139a2116",
            ),
            (
                ["verify", "--format", "csv"],
                "ca5204c59c0decf734291540bd24ea59c876ea8a3b3beb77cf01bcdba8db1345",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestWorkers:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Record each pool's max_workers and run its map serially."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_verify_pool_capped_at_task_count(self, pool_sizes):
        config = sweeps.SweepConfig(m_max=3, n_max=20, checks=("theorem1",), workers=64)
        assert sweeps.run_verify(config).ok
        assert pool_sizes == [3]


class TestSweep:
    def test_rows_cover_all_nonempty_subsets(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--m-max", "2", "--n-max", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        keys = {(row["m"], tuple(row["R"]), row["n"]) for row in doc["rows"]}
        specs = {(1, (0,)), (2, (0,)), (2, (1,)), (2, (0, 1))}
        assert keys == {(m, r, n) for (m, r) in specs for n in range(4)}

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--m-max", "2", "--n-max", "2", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,R,n,p_a,p_a_plus,p_r_plus,bound,slack,ratio"
        assert len(lines) == 1 + 4 * 3


def test_default_verify_is_green(capsys, tmp_path):
    """The full default check set on the default grid passes, with the pinned report."""
    target = tmp_path / "verify.json"
    code = main(["verify", "--output", str(target)])
    err = capsys.readouterr().err
    assert code == 0
    assert "verify: OK" in err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "6ed9da59ec7f95f89a362a1fb822e52d7e0ba164870d916fca1a99fd060d25b8"
    )
