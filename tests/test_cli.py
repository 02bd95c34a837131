import json
import tracemalloc
from pathlib import Path

import pytest

import qpdm.classical
import qpdm.cli
import qpdm.miner
from qpdm.classical import MAX_CLASSICAL_PRIME, next_prime
from qpdm.cli import EXIT_FILE, EXIT_NOT_ACCEPTED, EXIT_OK, EXIT_USAGE, main
from qpdm.dataset import MAX_ADDRESS_WIDTH
from qpdm.protocol import Transcript

FOUR_ROW_CSV = "I1,I2,I3\n1,1,0\n1,0,0\n0,1,1\n1,1,1\n"
GOLDEN = Path(__file__).resolve().parent / "data"
MARKET_CSV = str(Path(__file__).resolve().parent.parent / "demos" / "data" / "market.csv")
BASKETS_CSV = str(GOLDEN / "baskets_256x8.csv")
# padded cells (spaces, tabs, NBSP), CRLF line ends, trailing blank lines
PADDED_CSV = str(GOLDEN / "padded_crlf.csv")
# 70 items, so n + k + 3 > 62: the width of a label with data registers
WIDE_CSV = str(GOLDEN / "wide_24x70.csv")
# one bit string per line, no header
BITSTRING_DB = str(GOLDEN / "bitstrings_13x6.txt")


def refuse(*_args):
    raise AssertionError("must not be called")


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text(FOUR_ROW_CSV)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_deterministic_output(self, capsys, db_path):
        argv = ["estimate", "--db", db_path, "--items", "1,3", "--split", "2", "--p", "6", "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        report = json.loads(out1)
        assert report["itemset"] == [1, 3]
        assert report["accepted"] is True
        assert report["qubits_sent"] > 0

    def test_empty_items_usage_error(self, capsys, db_path):
        code, _, err = run(capsys, ["estimate", "--db", db_path, "--items", "", "--split", "2"])
        assert code == EXIT_USAGE
        assert "error" in err

    def test_exact_oracle_bound(self, capsys, db_path):
        hits = 0
        n_seeds = 30
        for seed in range(n_seeds):
            code, out, _ = run(
                capsys,
                [
                    "estimate", "--db", db_path, "--items", "1,2", "--split", "2",
                    "--p", "10", "--seed", str(seed), "--with-exact-oracle",
                ],
            )
            assert code == EXIT_OK
            report = json.loads(out)
            assert report["exact"] == 0.5
            if report["abs_error"] <= report["error_bound"]:
                hits += 1
        assert hits >= 0.9 * n_seeds

    def test_warning_on_majority_support(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "estimate", "--db", db_path, "--items", "1", "--split", "2",
                "--p", "8", "--seed", "1", "--with-exact-oracle",
            ],
        )
        report = json.loads(out)
        assert report["exact"] == 0.75
        assert "warning" in report

    def test_not_accepted_exit_code(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "estimate", "--db", db_path, "--items", "1", "--split", "2",
                "--p", "4", "--seed", "0", "--band", "1e-12", "--max-rounds", "1",
            ],
        )
        assert code == EXIT_NOT_ACCEPTED
        assert json.loads(out)["accepted"] is False

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["estimate", "--db", str(tmp_path / "nope.csv"), "--items", "1", "--split", "1"],
        )
        assert code == EXIT_FILE

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("I1,I2\n1,2\n")
        code, _, err = run(capsys, ["estimate", "--db", str(bad), "--items", "1", "--split", "1"])
        assert code == EXIT_FILE
        assert "line 2" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,\xff\n")
        code, out, err = run(capsys, ["estimate", "--db", str(bad), "--items", "1", "--split", "1"])
        assert code == EXIT_FILE
        assert out == ""
        assert str(bad) in err and err.count("qpdm: error:") == 1

    @pytest.mark.parametrize(
        "content, line",
        [
            # the position counts bytes of the file, "\r\n" as two
            (b"a,b\r\n1,0\r\n1,\xff\n",
             "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
            # valid UTF-8 is parsed from the bytes, a lone "\r" a line end
            ("a,b\r\n1,0\r1,1\n\u00e9,0\n".encode(), "{path}: line 4: non-binary cell '\u00e9'"),
        ],
    )
    def test_file_read_as_bytes(self, capsys, tmp_path, content, line):
        path = tmp_path / "db.csv"
        path.write_bytes(content)
        argv = ["estimate", "--db", str(path), "--items", "1", "--split", "1", "--seed", "1"]
        assert run(capsys, argv) == (EXIT_FILE, "", f"qpdm: error: {line.format(path=path)}\n")

    def test_address_width_guard(self, capsys, tmp_path):
        # one row more than MAX_ADDRESS_WIDTH address qubits hold
        path = tmp_path / "wide.txt"
        path.write_bytes(b"10\n" * ((1 << MAX_ADDRESS_WIDTH) + 1))
        argv = ["estimate", "--db", str(path), "--items", "1,2", "--split", "1", "--seed", "1"]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_FILE
        assert out == ""
        assert err.startswith("qpdm: error:") and err.count("\n") == 1
        assert "MAX_ADDRESS_WIDTH" in err
        # an oracle extraction at n = MAX_ADDRESS_WIDTH + 1 peaks near 90 B
        # per address; the refusal stays far below that
        assert peak < 90 * (2 << MAX_ADDRESS_WIDTH) / 8

    def test_transcript_dump_size_guard(self, capsys):
        # two counts at p = 19 expand to 4,194,296 transfers, over the 2^21 limit
        argv = [
            "estimate", "--db", MARKET_CSV, "--items", "1,2", "--split", "2",
            "--p", "19", "--band", "1.0", "--seed", "3", "--transcript-dump",
        ]
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("qpdm: error:") and err.count("\n") == 1
        assert "dump limit" in err

    def test_bad_flag_usage_exit(self, capsys, db_path):
        code, _, _ = run(capsys, ["estimate", "--db", db_path, "--items", "1", "--split", "2", "--bogus"])
        assert code == EXIT_USAGE

    def test_env_seed_fallback(self, capsys, db_path, monkeypatch):
        argv = ["estimate", "--db", db_path, "--items", "1,3", "--split", "2", "--p", "6"]
        monkeypatch.setenv("QPDM_SEED", "42")
        _, out_env, _ = run(capsys, argv)
        monkeypatch.delenv("QPDM_SEED")
        _, out_flag, _ = run(capsys, argv + ["--seed", "42"])
        assert out_env == out_flag

    def test_ci_requires_seed(self, capsys, db_path, monkeypatch):
        monkeypatch.delenv("QPDM_SEED", raising=False)
        code, _, err = run(capsys, ["estimate", "--db", db_path, "--items", "1", "--split", "2", "--ci"])
        assert code == EXIT_USAGE

    def test_transcript_dump(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "estimate", "--db", db_path, "--items", "1,3", "--split", "2",
                "--p", "4", "--seed", "3", "--transcript-dump", "--band", "1.0",
            ],
        )
        report = json.loads(out)
        events = report["transcript"]
        assert len(events) % 4 == 0
        assert set(events[0]) == {"dir", "qubits", "step"}

    @pytest.mark.parametrize("width", [["--s", "0.3", "--p", "40"], ["--s", "1e-9"]])
    def test_counting_width_guard(self, capsys, width):
        # an explicit --p or one derived from a tiny --s: refused before allocating
        code, out, err = run(
            capsys,
            ["estimate", "--db", MARKET_CSV, "--split", "2", "--items", "1,3", "--seed", "1", *width],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("qpdm: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags", [["--band", "nan"], ["--band", "0"], ["--max-rounds", "0"], ["--p", "40"]]
    )
    def test_counting_config_refused_before_reading(self, capsys, tmp_path, flags):
        # the --db file does not exist: the flags are refused first
        code, out, err = run(
            capsys,
            ["estimate", "--db", str(tmp_path / "missing.csv"), "--split", "1", "--items", "1",
             "--seed", "1", *flags],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("qpdm: error:")
        assert err.count("\n") == 1

    def test_implied_counting_width_names_p(self, capsys, tmp_path):
        # the --db file does not exist: the width implied by --s is refused first
        code, out, err = run(
            capsys,
            ["estimate", "--db", str(tmp_path / "missing.csv"), "--split", "1", "--items", "1",
             "--seed", "1", "--s", "1e-5"],
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("qpdm: error:")
        assert err.count("\n") == 1
        assert "--p" in err and "MAX_COUNTING_WIDTH" in err

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    @pytest.mark.parametrize(
        "items, message",
        [("", "empty itemset"), ("1,x", "itemset '1,x' is not a comma-separated list of integers")],
        ids=["empty", "non-integer"],
    )
    def test_items_refused_before_reading(self, capsys, tmp_path, command, items, message):
        # the --db file does not exist: the itemset's syntax is refused first
        argv = [command, "--db", str(tmp_path / "missing.csv"), "--split", "1", "--items", items,
                "--seed", "1"]
        assert run(capsys, argv) == (EXIT_USAGE, "", f"qpdm: error: {message}\n")

    @pytest.mark.parametrize("command", ["estimate", "mine", "compare"])
    @pytest.mark.parametrize("split", ["0", "1", "2"])
    def test_one_item_database(self, capsys, tmp_path, command, split):
        path = tmp_path / "one_item.txt"
        path.write_text("1\n0\n1\n")
        flags = ["--c", "0.5"] if command == "mine" else ["--items", "1"]
        argv = [command, "--db", str(path), "--split", split, "--seed", "1", "--p", "6", *flags]
        assert run(capsys, argv) == (
            EXIT_USAGE, "", "qpdm: error: a database of one item cannot be split between two parties\n"
        )

    def test_one_row_database(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b,c\n1,1,0\n")
        code, out, _ = run(
            capsys,
            ["estimate", "--db", str(path), "--items", "1,2", "--split", "1", "--seed", "1",
             "--p", "6", "--with-exact-oracle"],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["exact"] == 1.0
        assert report["abs_error"] <= report["error_bound"]
        code, out, _ = run(
            capsys,
            ["mine", "--db", str(path), "--split", "1", "--s", "0.5", "--c", "0.5", "--seed", "1",
             "--p", "6", "--with-exact-oracle"],
        )
        assert code == EXIT_OK
        assert not any(json.loads(out)["exact_diff"].values())

    def test_output_file(self, capsys, db_path, tmp_path):
        out_path = tmp_path / "report.json"
        argv = [
            "estimate", "--db", db_path, "--items", "1,3", "--split", "2",
            "--p", "6", "--seed", "42", "--output", str(out_path),
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(out_path.read_text())["itemset"] == [1, 3]


    def test_negative_seed_refused_before_reading(self, capsys, tmp_path, monkeypatch):
        # the --db file does not exist: the seed is refused first, naming its source
        argv = ["estimate", "--db", str(tmp_path / "missing.csv"), "--split", "1", "--items", "1"]
        code, out, err = run(capsys, argv + ["--seed", "-3"])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "qpdm: error: --seed must be a non-negative integer, got -3\n"
        monkeypatch.setenv("QPDM_SEED", "-1")
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "qpdm: error: QPDM_SEED must be a non-negative integer, got '-1'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--items", "1,3", "--p", "6"],
            ["mine", "--c", "0.5", "--s", "0.5", "--p", "6"],
        ],
    )
    def test_unwritable_output_refused(self, capsys, db_path, tmp_path, argv):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, [*argv, "--db", db_path, "--split", "2", "--seed", "42", "--output", str(target)]
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1].startswith(f"qpdm: error: cannot write {target}: ")
        assert err.count("qpdm: error:") == 1
        assert not target.parent.exists()


class TestMine:
    def test_matches_exact_miner(self, capsys, db_path):
        code, out, err = run(
            capsys,
            [
                "mine", "--db", db_path, "--split", "2", "--s", "0.4", "--c", "0.6",
                "--p", "12", "--seed", "7", "--with-exact-oracle",
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["exact_diff"] == {
            "frequent_missing": [],
            "frequent_extra": [],
            "rules_missing": [],
            "rules_extra": [],
        }
        assert report["communication"]["total_qubits"] > 0
        assert "wall clock" in err

    def test_exact_oracle_guard_before_mining(self, capsys, tmp_path, monkeypatch):
        # 21 items: exact enumeration is refused before any support is estimated
        path = tmp_path / "wide.csv"
        path.write_text(",".join(f"I{i}" for i in range(1, 22)) + "\n" + ",".join("10" * 10 + "1") + "\n")
        monkeypatch.setattr(qpdm.miner, "joint_support", refuse)
        argv = ["mine", "--db", str(path), "--split", "10", "--s", "0.3", "--c", "0.6", "--p", "6",
                "--seed", "1", "--with-exact-oracle"]
        assert run(capsys, argv) == (
            EXIT_USAGE, "", "qpdm: error: exact enumeration refused beyond 20 items\n"
        )

    def test_transcript_dump(self, capsys, monkeypatch):
        # four transfers per oracle call, whose qubits add up to the total
        transcripts = []

        def transcript():
            transcripts.append(Transcript())
            return transcripts[-1]

        monkeypatch.setattr(qpdm.cli, "Transcript", transcript)
        code, out, _ = run(capsys, ["mine", "--db", MARKET_CSV, "--split", "2", "--s", "0.3",
                                    "--c", "0.6", "--p", "8", "--seed", "11", "--transcript-dump"])
        assert code == EXIT_OK
        report = json.loads(out)
        (log,) = transcripts
        assert log.oracle_calls > 0
        dump = report["transcript"]
        assert len(dump) == 4 * log.oracle_calls
        assert sum(event["qubits"] for event in dump) == report["communication"]["total_qubits"]
        n = 4  # 16 rows
        assert [event["qubits"] for event in dump[:4]] == [n, n + 1, n + 1, n]

    def test_s_validation(self, capsys, db_path):
        code, _, err = run(
            capsys, ["mine", "--db", db_path, "--split", "2", "--s", "1.1", "--c", "0.5"]
        )
        assert code == EXIT_USAGE
        assert "(0, 1)" in err

    def test_csv_one_row_per_rule(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "mine", "--db", db_path, "--split", "2", "--s", "0.4", "--c", "0.6",
                "--p", "12", "--seed", "7", "--format", "csv",
            ],
        )
        lines = out.strip().splitlines()
        assert lines[0] == "X,Y,support,confidence"
        json_code, json_out, _ = run(
            capsys,
            [
                "mine", "--db", db_path, "--split", "2", "--s", "0.4", "--c", "0.6",
                "--p", "12", "--seed", "7",
            ],
        )
        assert len(lines) - 1 == len(json.loads(json_out)["rules"])

    def test_deterministic(self, capsys, db_path):
        argv = [
            "mine", "--db", db_path, "--split", "2", "--s", "0.4", "--c", "0.6",
            "--p", "11", "--seed", "9",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestCompare:
    def test_costs_side_by_side(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "compare", "--db", db_path, "--items", "1,2", "--split", "2",
                "--p", "6", "--seed", "11",
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        n = 2  # four rows pad to 2^2
        calls = report["quantum"]["oracle_calls"]
        rounds = report["quantum"]["rounds"]
        assert calls == rounds * 2 * (2**6 - 1)
        assert report["quantum"]["qubits_total"] == calls * (4 * n + 2)
        assert report["quantum"]["qubits_per_call_max"] == 4 * n + 2
        s1, s2 = report["classical"]["set_sizes"]
        prime = report["classical"]["prime"]
        assert prime == 5
        bits_per = 3  # ceil(log2 5)
        assert report["classical"]["bits_total"] == 2 * (s1 + s2) * bits_per
        assert report["classical"]["support"] == report["exact_support"] == 0.5

    def test_explicit_keys(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "compare", "--db", db_path, "--items", "1,2", "--split", "2",
                "--p", "5", "--seed", "2", "--prime", "11", "--eA", "9", "--eB", "3",
            ],
        )
        assert code == EXIT_OK
        assert json.loads(out)["classical"]["prime"] == 11

    def test_explicit_keys_skip_the_key_space(self, capsys, db_path, monkeypatch):
        argv = [
            "compare", "--db", db_path, "--items", "1,2", "--split", "2",
            "--p", "5", "--seed", "2", "--prime", "11", "--eA", "9", "--eB", "3",
        ]
        _, expected, _ = run(capsys, argv)
        monkeypatch.setattr(qpdm.cli, "valid_exponents", refuse)
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out == expected

    def test_prime_bound(self, capsys, tmp_path, monkeypatch):
        # the --db file does not exist: the prime is refused first, and
        # before any trial division
        monkeypatch.setattr(qpdm.classical, "is_prime", refuse)
        monkeypatch.setattr(qpdm.cli, "valid_exponents", refuse)
        for prime in (MAX_CLASSICAL_PRIME + 1, 2**61 - 1):
            code, out, err = run(
                capsys,
                ["compare", "--db", str(tmp_path / "missing.csv"), "--items", "1,2", "--split", "1",
                 "--prime", str(prime), "--eA", "3", "--eB", "5"],
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("qpdm: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("exponents, message", [
        (["--eA", "4", "--eB", "3"], "exponent 4 outside {3, 5, ..., 9}"),
        (["--eB", "5"], "exponent 5 not coprime to p-1 = 10"),
    ], ids=["even-eA", "eB-not-coprime"])
    def test_explicit_exponents_refused_before_the_run(self, capsys, tmp_path, monkeypatch,
                                                       exponents, message):
        # with --prime given, a bad explicit exponent is refused before the
        # file is read, and so before any support is estimated
        argv = ["compare", "--db", str(tmp_path / "missing.csv"), "--items", "1,2", "--split", "2",
                "--seed", "1", "--prime", "11", *exponents]
        expected = (EXIT_USAGE, "", f"qpdm: error: {message}\n")
        assert run(capsys, argv) == expected
        monkeypatch.setattr(qpdm.cli, "joint_support", refuse)
        argv[2] = MARKET_CSV
        assert run(capsys, argv) == expected

    @pytest.mark.parametrize("exponents, message", [
        (["--eA", "4"], "exponent 4 outside {3, 5, ..., 15}"),
        (["--eA", "3", "--eB", "6"], "exponent 6 outside {3, 5, ..., 15}"),
    ], ids=["even-eA", "even-eB"])
    def test_explicit_exponents_refused_before_the_run_with_default_prime(
        self, capsys, monkeypatch, exponents, message
    ):
        # market.csv has 16 rows, so the default prime is 17: known once the
        # file is read, and the exponents are checked before any estimate
        monkeypatch.setattr(qpdm.cli, "joint_support", refuse)
        argv = ["compare", "--db", MARKET_CSV, "--items", "1,2", "--split", "2", "--seed", "1",
                *exponents]
        assert run(capsys, argv) == (EXIT_USAGE, "", f"qpdm: error: {message}\n")

    @pytest.mark.parametrize("prime, csv, message", [
        ("4", None, "4 is not prime"),
        ("5", None, "prime must exceed N"),
        ("3", "I1,I2\n1,1\n0,1\n", "prime 3 admits no valid exponents"),
    ], ids=["non-prime", "prime-below-rows", "no-exponents"])
    def test_bad_prime_refused_before_the_run(self, capsys, tmp_path, monkeypatch, prime, csv, message):
        db = MARKET_CSV
        if csv is not None:
            db = str(tmp_path / "db.csv")
            Path(db).write_text(csv)
        monkeypatch.setattr(qpdm.cli, "joint_support", refuse)
        argv = ["compare", "--db", db, "--items", "1,2", "--split", "1", "--seed", "1", "--prime", prime]
        assert run(capsys, argv) == (EXIT_USAGE, "", f"qpdm: error: {message}\n")

    def test_exact_oracle_flag_refused(self, capsys):
        # compare always reports exact_support, so the flag would change nothing
        code, out, err = run(capsys, [*COMPARE, "--with-exact-oracle"])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == "qpdm: error: unrecognized arguments: --with-exact-oracle"

    def test_default_prime_within_bound(self):
        assert next_prime(1 << MAX_ADDRESS_WIDTH) <= MAX_CLASSICAL_PRIME

    def test_bad_key_usage_error(self, capsys, db_path):
        code, _, _ = run(
            capsys,
            [
                "compare", "--db", db_path, "--items", "1", "--split", "2",
                "--p", "5", "--seed", "2", "--prime", "12",
            ],
        )
        assert code == EXIT_USAGE


class TestAttackDemo:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, ["attack-demo", "--p", "11", "--eA", "9", "--eB", "3", "--S1", "2,8"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["singly"] == [6, 7]
        assert report["doubly"] == [2, 7]
        assert report["candidates"] == [3]
        assert "elapsed" in report

    def test_non_prime_rejected(self, capsys):
        code, _, err = run(
            capsys, ["attack-demo", "--p", "12", "--eA", "5", "--eB", "7", "--S1", "2"]
        )
        assert code == EXIT_USAGE

    def test_cap_checked_before_primality(self, capsys, monkeypatch):
        # trial division of a prime near 2^61 would take hours
        monkeypatch.setattr(qpdm.classical, "is_prime", refuse)
        code, out, err = run(
            capsys, ["attack-demo", "--p", str(2**61 - 1), "--eA", "5", "--eB", "7", "--S1", "2"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("qpdm: error:") and err.count("\n") == 1

    def test_random_instance_recovers_key(self, capsys):
        code, out, _ = run(
            capsys, ["attack-demo", "--p", "23", "--eA", "5", "--eB", "7", "--S1", "2,3,9"]
        )
        assert code == EXIT_OK
        assert 7 in json.loads(out)["candidates"]

    def test_deterministic_modulo_elapsed(self, capsys):
        argv = ["attack-demo", "--p", "11", "--eA", "9", "--eB", "3", "--S1", "2,8"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("elapsed"), r2.pop("elapsed")
        assert r1 == r2


class TestFormats:
    def test_table_render(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "estimate", "--db", db_path, "--items", "1,3", "--split", "2",
                "--p", "6", "--seed", "42", "--format", "table",
            ],
        )
        assert code == EXIT_OK
        assert "estimate:" in out
        assert "itemset:" in out

    def test_estimate_csv(self, capsys, db_path):
        code, out, _ = run(
            capsys,
            [
                "estimate", "--db", db_path, "--items", "1,3", "--split", "2",
                "--p", "6", "--seed", "42", "--format", "csv",
            ],
        )
        header, row = out.strip().splitlines()
        assert "estimate" in header.split(",")
        assert len(header.split(",")) == len(row.split(","))


def estimate(*flags, db=MARKET_CSV, items="1,2", seed="1"):
    """An estimate command line; a flag given again in ``flags`` wins."""
    argv = ["estimate", "--db", db, "--items", items, "--split", "2", *flags]
    return argv if seed is None else [*argv, "--seed", seed]


COMPARE = ["compare", "--db", MARKET_CSV, "--items", "1,2", "--split", "2", "--seed", "1"]


class TestErrorLines:
    """Exit code and the one stderr line of each refusal, recorded from an
    earlier version; {missing} and {bad} stand for the paths of a missing
    and a malformed database file."""

    @pytest.mark.parametrize(
        "argv, env_seed, code, line",
        [
            pytest.param(estimate("--s", "1.5"), None, EXIT_USAGE,
                         "support threshold s must lie in (0, 1)", id="s"),
            pytest.param(["mine", "--db", MARKET_CSV, "--split", "2", "--seed", "1", "--c", "1.5"],
                         None, EXIT_USAGE, "confidence threshold c must lie in (0, 1)", id="c"),
            pytest.param(estimate("--s", "1e-5"), None, EXIT_USAGE,
                         "--s 1e-05 implies counting width 28 (2^p >= 2000/s), above"
                         " MAX_COUNTING_WIDTH = 24; set the width with --p", id="implied-p"),
            pytest.param(estimate("--s", "1e-306"), None, EXIT_USAGE,
                         "--s 1e-306 implies counting width 1028 (2^p >= 2000/s), above"
                         " MAX_COUNTING_WIDTH = 24; set the width with --p", id="implied-p-overflow"),
            pytest.param(estimate("--s", "5e-324"), None, EXIT_USAGE,
                         "--s 5e-324 implies counting width 1085 (2^p >= 2000/s), above"
                         " MAX_COUNTING_WIDTH = 24; set the width with --p", id="implied-p-subnormal"),
            pytest.param(estimate("--p", "40"), None, EXIT_USAGE,
                         "counting width p must lie in 1..24, got 40", id="p"),
            pytest.param(estimate("--band", "nan"), None, EXIT_USAGE,
                         "agreement band must be positive and finite", id="band"),
            pytest.param(estimate("--max-rounds", "0"), None, EXIT_USAGE,
                         "max_rounds must be >= 1", id="max-rounds"),
            pytest.param(estimate(seed="-3"), None, EXIT_USAGE,
                         "--seed must be a non-negative integer, got -3", id="seed"),
            pytest.param(estimate(seed=None), "-1", EXIT_USAGE,
                         "QPDM_SEED must be a non-negative integer, got '-1'", id="env-seed"),
            pytest.param(estimate(seed=None), "abc", EXIT_USAGE,
                         "QPDM_SEED='abc' is not an integer", id="env-seed-syntax"),
            pytest.param([*COMPARE, "--prime", str(MAX_CLASSICAL_PRIME + 1), "--eA", "3", "--eB", "5"],
                         None, EXIT_USAGE, "--prime must not exceed 4194304", id="prime"),
            pytest.param([*COMPARE, "--prime", "11", "--eA", "4", "--eB", "3"], None, EXIT_USAGE,
                         "exponent 4 outside {3, 5, ..., 9}", id="even-eA"),
            pytest.param([*COMPARE, "--prime", "4"], None, EXIT_USAGE, "4 is not prime",
                         id="non-prime"),
            pytest.param([*COMPARE, "--prime", "5"], None, EXIT_USAGE, "prime must exceed N",
                         id="prime-below-rows"),
            pytest.param(estimate(items="0,2"), None, EXIT_USAGE,
                         "item indices are 1-based", id="item-zero"),
            pytest.param(estimate(items="1,9"), None, EXIT_USAGE,
                         "item index outside 1..5", id="item-range"),
            pytest.param(estimate("--split", "0"), None, EXIT_USAGE,
                         "split must lie in 1..4", id="split"),
            pytest.param(["attack-demo", "--p", "1000003", "--eA", "5", "--eB", "7", "--S1", "2"],
                         None, EXIT_USAGE, "attack guarded to primes <= 1000000", id="attack-prime"),
            *(
                pytest.param(["attack-demo", "--p", p, "--eA", "3", "--eB", "5", "--S1", "1"], None,
                             EXIT_USAGE, f"prime {p} admits no valid exponents", id=f"attack-p{p}")
                for p in ("2", "3")
            ),
            pytest.param([*COMPARE, "--prime", "3", "--eA", "3"], None, EXIT_USAGE,
                         "prime 3 admits no valid exponents", id="compare-p3-eA"),
            # S1 holds values to encrypt, not item indices: the range is the key's to check
            pytest.param(["attack-demo", "--p", "11", "--eA", "9", "--eB", "3", "--S1", ""], None,
                         EXIT_USAGE, "--S1 holds no value to encrypt", id="attack-S1-empty"),
            pytest.param(["attack-demo", "--p", "11", "--eA", "9", "--eB", "3", "--S1", "0,2"], None,
                         EXIT_USAGE, "value 0 outside [1, 10]", id="attack-S1-zero"),
            pytest.param(["attack-demo", "--p", "11", "--eA", "9", "--eB", "3", "--S1", "2;8"], None,
                         EXIT_USAGE, "--S1 '2;8' is not a comma-separated list of integers",
                         id="attack-S1-syntax"),
            pytest.param(estimate(db="{missing}"), None, EXIT_FILE,
                         "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'",
                         id="missing-file"),
            pytest.param(estimate(db="{bad}"), None, EXIT_FILE,
                         "{bad}: line 2: non-binary cell '2'", id="malformed-file"),
            *(
                pytest.param([*argv, "--transcript-dump", "--format", "csv"], None, EXIT_USAGE,
                             "--transcript-dump has no csv rendering; use --format json or table",
                             id=f"dump-csv-{argv[0]}")
                for argv in (
                    estimate(db="{missing}"),
                    ["mine", "--db", "{missing}", "--split", "2", "--c", "0.6", "--seed", "1"],
                    ["compare", "--db", "{missing}", "--items", "1,2", "--split", "2", "--seed", "1"],
                )
            ),
            # refused before the file is read, which would exit 66
            pytest.param(["mine", "--db", "{missing}", "--split", "2", "--c", "0.6", "--seed", "1",
                          "--with-exact-oracle", "--format", "csv"], None, EXIT_USAGE,
                         "mine --with-exact-oracle has no csv rendering; use --format json or table",
                         id="exact-csv-mine"),
        ],
    )
    def test_error_line(self, capsys, tmp_path, monkeypatch, argv, env_seed, code, line):
        paths = {"{missing}": str(tmp_path / "missing.csv"), "{bad}": str(tmp_path / "bad.csv")}
        (tmp_path / "bad.csv").write_text("I1,I2\n1,2\n")
        monkeypatch.delenv("QPDM_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("QPDM_SEED", env_seed)
        for mark, path in paths.items():
            argv = [path if arg == mark else arg for arg in argv]
            line = line.replace(mark, path)
        assert run(capsys, argv) == (code, "", f"qpdm: error: {line}\n")


class TestGolden:
    """Seeded stdout recorded from an earlier version must not change by a byte."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (
                ["mine", "--db", MARKET_CSV, "--split", "2", "--s", "0.3", "--c", "0.6",
                 "--seed", "11", "--with-exact-oracle"],
                "mine_market_seed11.json",
            ),
            (
                ["compare", "--db", MARKET_CSV, "--items", "1,2", "--split", "2", "--seed", "3"],
                "compare_market_seed3.json",
            ),
            (
                ["mine", "--db", BASKETS_CSV, "--split", "4", "--s", "0.15", "--c", "0.5",
                 "--p", "7", "--band", "0.2", "--enc", "modadd", "--seed", "5",
                 "--with-exact-oracle"],
                "mine_baskets_seed5.json",
            ),
            (
                ["compare", "--db", BASKETS_CSV, "--items", "3,5", "--split", "4",
                 "--enc", "cyclic", "--seed", "8"],
                "compare_baskets_cyclic_seed8.json",
            ),
            (
                ["estimate", "--db", MARKET_CSV, "--items", "1,2", "--split", "2", "--p", "6",
                 "--band", "1.0", "--seed", "3", "--transcript-dump"],
                "estimate_market_dump_seed3.json",
            ),
            (
                ["compare", "--db", MARKET_CSV, "--items", "1,2", "--split", "2", "--p", "6",
                 "--band", "1.0", "--seed", "3", "--transcript-dump"],
                "compare_market_dump_seed3.json",
            ),
            (
                ["estimate", "--db", PADDED_CSV, "--items", "1,3", "--split", "2", "--p", "7",
                 "--seed", "4", "--with-exact-oracle"],
                "estimate_padded_crlf_seed4.json",
            ),
            *(
                # mine refuses --with-exact-oracle with csv, whose rendering
                # holds only the rules: the flag never changed those bytes
                ([arg for arg in argv if fmt != "csv" or arg != "--with-exact-oracle"] + ["--format", fmt],
                 f"{name}.{fmt}")
                for argv, name in [
                    (["mine", "--db", MARKET_CSV, "--split", "2", "--s", "0.3", "--c", "0.6",
                      "--seed", "11", "--with-exact-oracle"], "mine_market_seed11"),
                    (["compare", "--db", MARKET_CSV, "--items", "1,2", "--split", "2", "--seed", "3"],
                     "compare_market_seed3"),
                ]
                for fmt in ("csv", "table")
            ),
            (
                ["estimate", "--db", WIDE_CSV, "--items", "5,52", "--split", "35", "--p", "7",
                 "--seed", "6", "--with-exact-oracle"],
                "estimate_wide70_seed6.json",
            ),
            (
                ["estimate", "--db", BITSTRING_DB, "--items", "2,5", "--split", "3", "--p", "7",
                 "--seed", "9", "--with-exact-oracle"],
                "estimate_bitstrings_seed9.json",
            ),
        ],
    )
    def test_seeded_stdout_byte_identical(self, capsys, argv, golden):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")
