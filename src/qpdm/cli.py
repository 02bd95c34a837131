"""Command-line front end: support estimation, full mining, quantum vs
classical comparison, and the exhaustive-key attack demo.

JSON on stdout is the canonical output and is byte-identical for identical
(flags, seed) pairs; csv and table renderings are derived from it. Timing
goes to stderr. Exit codes: 0 ok, 2 estimate not accepted within
max_rounds, 66 for a FileError (an unreadable or malformed database file,
or one with more rows than MAX_ADDRESS_WIDTH address qubits can hold), and
64 for every other ValueError (a usage or validation error).
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
import time
from fractions import Fraction

from ._pcg64 import Generator
from .classical import (
    MAX_ATTACK_PRIME,
    MAX_CLASSICAL_PRIME,
    BitLog,
    ClassicalKey,
    check_prime,
    classical_support,
    exhaustive_key_attack,
    index_set,
    next_prime,
    valid_exponents,
)
from .counting import MAX_COUNTING_WIDTH, CountingConfig, default_counting_width, joint_support
from .dataset import exact_support, itemset, pad_to_power_of_two, parse_database, vertical_partition
from .miner import quantum_estimator, run_mining
from .protocol import KEY_FAMILIES, Transcript, build_qram, transcript_total

# Interpreter shutdown collects garbage over every object the imports
# built, numpy's included, although the OS is about to reclaim them all.
# Freezing the heap at exit moves it out of those collections: the time
# from a script's last statement to its exit, with numpy and this module
# imported, fell from 30-34 ms to 6-8 ms (medians of 20, 2-vCPU host).
# Exit handlers run before stdout is flushed and the modules are torn
# down, so both still happen, and _emit closes an --output file itself.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_NOT_ACCEPTED = 2
EXIT_USAGE = 64
EXIT_FILE = 66


class FileError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--db", required=True, help="database file (csv or bitstring lines)")
    sub.add_argument("--split", required=True, type=int, help="Alice holds items 1..split")
    sub.add_argument("--s", type=float, default=0.25, help="preset support threshold")
    sub.add_argument("--p", type=int, default=None, help="counting width (default from 2000/s)")
    sub.add_argument("--seed", type=int, default=None, help="rng seed (env QPDM_SEED as fallback)")
    sub.add_argument("--ci", action="store_true", help="require an explicit seed")
    sub.add_argument("--enc", choices=sorted(KEY_FAMILIES), default="bitflip", help="key family")
    sub.add_argument("--band", type=float, default=0.01, help="agreement band as multiple of s")
    sub.add_argument("--max-rounds", type=int, default=20)
    sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub.add_argument("--output", default=None, help="write the report here instead of stdout")
    sub.add_argument("--transcript-dump", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="qpdm", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="two-party support estimate")
    _add_common(est)
    est.add_argument("--items", required=True, help="comma-separated item indices, e.g. 1,3")
    est.add_argument("--with-exact-oracle", action="store_true")

    mine = subs.add_parser("mine", help="full two-party Apriori mining run")
    _add_common(mine)
    mine.add_argument("--c", type=float, required=True, help="confidence threshold")
    mine.add_argument("--with-exact-oracle", action="store_true")

    cmp_ = subs.add_parser("compare", help="quantum qubits vs classical bits for one itemset")
    _add_common(cmp_)
    cmp_.add_argument("--items", required=True)
    cmp_.add_argument("--prime", type=int, default=None, help="classical prime (default: next prime > N)")
    cmp_.add_argument("--eA", type=int, default=None)
    cmp_.add_argument("--eB", type=int, default=None)

    atk = subs.add_parser("attack-demo", help="exhaustive-key attack on the classical protocol")
    atk.add_argument("--p", type=int, required=True)
    atk.add_argument("--eA", type=int, required=True)
    atk.add_argument("--eB", type=int, required=True)
    atk.add_argument("--S1", required=True, help="comma-separated values, e.g. 2,8")
    atk.add_argument("--format", choices=("json", "csv", "table"), default="json")
    atk.add_argument("--output", default=None)
    return parser


def _integers(text: str, name: str) -> list[int]:
    """A comma-separated list of integers; blank cells are skipped."""
    try:
        return [int(cell) for cell in text.split(",") if cell.strip()]
    except ValueError:
        raise ValueError(f"{name} {text!r} is not a comma-separated list of integers")


def _parse_items(text: str) -> frozenset:
    """The itemset's syntax; its upper bound needs the database."""
    return itemset(_integers(text, "itemset"))


def _parse_values(text: str) -> set[int]:
    """The attack demo's values to encrypt; their range needs the prime,
    and ClassicalKey.encrypt checks it."""
    values = set(_integers(text, "--S1"))
    if not values:
        raise ValueError("--S1 holds no value to encrypt")
    return values


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("QPDM_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"QPDM_SEED={env!r} is not an integer")
        if seed < 0:
            raise ValueError(f"QPDM_SEED must be a non-negative integer, got {env!r}")
        return seed
    if args.ci:
        raise ValueError("--ci requires a seed (flag or QPDM_SEED)")
    return None


def _counting_config(args) -> CountingConfig:
    # checked first, in CountingConfig's words: default_counting_width takes s > 0
    if not 0 < args.s < 1:
        raise ValueError("support threshold s must lie in (0, 1)")
    c = getattr(args, "c", None)
    if c is not None and not 0 < c < 1:
        raise ValueError("confidence threshold c must lie in (0, 1)")
    p = args.p
    if p is None:
        p = default_counting_width(args.s)
        if p > MAX_COUNTING_WIDTH:
            raise ValueError(
                f"--s {args.s} implies counting width {p} (2^p >= 2000/s), above"
                f" MAX_COUNTING_WIDTH = {MAX_COUNTING_WIDTH}; set the width with --p"
            )
    return CountingConfig(
        p=p,
        s=args.s,
        agreement_band=args.band,
        max_rounds=args.max_rounds,
        key_family=args.enc,
    )


def _load_db(path: str):
    """The database in the file, padded to a power of two. Padding rows are
    all zero and the original row count is kept, so exact supports read
    from it are those of the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if not data.isascii():
            data.decode("utf-8")  # only checked: the parser reads the bytes
    except (OSError, UnicodeDecodeError) as exc:
        raise FileError(f"cannot read {path}: {exc}")
    try:
        # padding refuses more rows than MAX_ADDRESS_WIDTH admits, before allocating
        return pad_to_power_of_two(parse_database(data))
    except ValueError as exc:
        raise FileError(f"{path}: {exc}")


def _build_parties(padded, split, items=None):
    if items is not None:
        itemset(items, padded.n_items)
    n = (padded.n_transactions - 1).bit_length()
    alice_view, bob_view = vertical_partition(padded, split)
    return build_qram(alice_view, n), build_qram(bob_view, n)


def cmd_estimate(args) -> int:
    counting = _counting_config(args)
    seed = _resolve_seed(args)
    items = _parse_items(args.items)
    padded = _load_db(args.db)
    alice, bob = _build_parties(padded, args.split, items)
    transcript = Transcript()
    rng = Generator(seed)
    est = joint_support(alice, bob, items, counting, rng, transcript)
    report = {
        "command": "estimate",
        "itemset": sorted(items),
        "estimate": float(est.value),
        "error_bound": est.error_bound,
        "rounds": est.rounds_used,
        "accepted": est.accepted,
        "s1": est.s1,
        "s2": est.s2,
        "qubits_sent": transcript_total(transcript)[0],
    }
    if args.with_exact_oracle:
        exact = exact_support(padded, items)
        report["exact"] = float(exact)
        report["abs_error"] = abs(float(est.value) - float(exact))
        padded_fraction = Fraction(
            int(exact * padded.original_count), padded.n_transactions
        )
        if padded_fraction >= Fraction(1, 2):
            report["warning"] = (
                "padded-space support >= 1/2: the counting readout cannot "
                "distinguish it from its complement"
            )
    if args.transcript_dump:
        report["transcript"] = transcript.to_json()
    _emit(report, args.format, args.output)
    return EXIT_OK if est.accepted else EXIT_NOT_ACCEPTED


def cmd_mine(args) -> int:
    counting = _counting_config(args)
    seed = _resolve_seed(args)
    padded = _load_db(args.db)
    alice, bob = _build_parties(padded, args.split)
    transcript = Transcript()
    started = time.perf_counter()
    estimator = quantum_estimator(alice, bob, counting, seed, transcript)
    mining = run_mining(
        alice,
        bob,
        counting,
        args.c,
        estimator,
        transcript,
        exact_db=padded if args.with_exact_oracle else None,
    )
    elapsed = time.perf_counter() - started
    report = {
        "command": "mine",
        "s": args.s,
        "c": args.c,
        "split": args.split,
        **mining.to_json_dict(),
    }
    if args.transcript_dump:
        report["transcript"] = transcript.to_json()
    print(f"mine: {elapsed:.2f}s wall clock", file=sys.stderr)
    _emit(report, args.format, args.output)
    return EXIT_OK


def _check_exponents(args, prime: int) -> None:
    """Refuse a bad explicit --eA or --eB under the given prime."""
    for e in (args.eA, args.eB):
        if e is not None:
            ClassicalKey(prime, e)


def cmd_compare(args) -> int:
    counting = _counting_config(args)
    seed = _resolve_seed(args)
    if args.prime is not None:
        if args.prime > MAX_CLASSICAL_PRIME:
            raise ValueError(f"--prime must not exceed {MAX_CLASSICAL_PRIME}")
        check_prime(args.prime)
        _check_exponents(args, args.prime)
    items = _parse_items(args.items)
    padded = _load_db(args.db)
    alice, bob = _build_parties(padded, args.split, items)
    # the prime and any explicit exponents are checked as soon as the prime
    # is known, before the quantum run; the other keys are drawn after it
    prime = args.prime if args.prime is not None else next_prime(max(padded.original_count, 4))
    if args.prime is None:
        _check_exponents(args, prime)
    if padded.original_count >= prime:
        raise ValueError("prime must exceed N")
    if args.eA is None or args.eB is None:
        exponents = valid_exponents(prime)
    rng = Generator(seed)
    transcript = Transcript()
    est = joint_support(alice, bob, items, counting, rng, transcript)
    total_qubits, per_call = transcript_total(transcript)
    e_a = args.eA if args.eA is not None else int(rng.choice(exponents))
    e_b = args.eB if args.eB is not None else int(rng.choice(exponents))
    key_a, key_b = ClassicalKey(prime, e_a), ClassicalKey(prime, e_b)
    bits = BitLog()
    s1 = index_set(alice, items)
    s2 = index_set(bob, items)
    classical_value = classical_support(s1, s2, key_a, key_b, padded.original_count, bits)

    report = {
        "command": "compare",
        "itemset": sorted(items),
        "exact_support": float(exact_support(padded, items)),
        "quantum": {
            "estimate": float(est.value),
            "accepted": est.accepted,
            "rounds": est.rounds_used,
            "oracle_calls": transcript.oracle_calls,
            "qubits_total": total_qubits,
            "qubits_per_call_max": per_call,
        },
        "classical": {
            "support": float(classical_value),
            "prime": prime,
            "set_sizes": [len(s1), len(s2)],
            "bits_total": bits.total,
        },
    }
    if args.transcript_dump:
        report["transcript"] = transcript.to_json()
    _emit(report, args.format, args.output)
    return EXIT_OK


def cmd_attack_demo(args) -> int:
    # before the keys' trial division, which takes hours near 2^61
    if args.p > MAX_ATTACK_PRIME:
        raise ValueError(f"attack guarded to primes <= {MAX_ATTACK_PRIME}")
    s1 = _parse_values(args.S1)
    key_a = ClassicalKey(args.p, args.eA)
    key_b = ClassicalKey(args.p, args.eB)
    singly = {key_a.encrypt(x) for x in s1}
    doubly = {key_b.encrypt(x) for x in singly}
    started = time.perf_counter()
    candidates = exhaustive_key_attack(args.p, singly, doubly)
    elapsed = time.perf_counter() - started
    report = {
        "p": args.p,
        "singly": sorted(singly),
        "doubly": sorted(doubly),
        "candidates": candidates,
        "elapsed": elapsed,
    }
    _emit(report, args.format, args.output)
    return EXIT_OK


def _scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def _flatten(obj, prefix="") -> list[tuple[str, object]]:
    items = []
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, f"{name}."))
        elif isinstance(value, list) and all(_scalar(v) for v in value):
            items.append((name, " ".join(str(v) for v in value)))
        elif _scalar(value):
            items.append((name, value))
    return items


def _as_csv(report: dict) -> str:
    if report.get("command") == "mine":
        lines = ["X,Y,support,confidence"]
        for rule in report["rules"]:
            x = " ".join(str(i) for i in rule["X"])
            y = " ".join(str(i) for i in rule["Y"])
            lines.append(f"{x},{y},{rule['support']},{rule['confidence']}")
        return "\n".join(lines)
    flat = _flatten(report)
    header = ",".join(key for key, _ in flat)
    row = ",".join(str(value) for _, value in flat)
    return f"{header}\n{row}"


def _as_table(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if _scalar(value):
                lines.append(f"{pad}{key}: {value}")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(_as_table(value, indent + 1))
    elif isinstance(obj, list):
        if all(_scalar(v) for v in obj):
            lines.append(f"{pad}{' '.join(str(v) for v in obj)}")
        else:
            for entry in obj:
                lines.append(f"{pad}-")
                lines.extend(_as_table(entry, indent + 1))
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(report: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2)
    elif fmt == "csv":
        text = _as_csv(report)
    else:
        text = "\n".join(_as_table(report))
    if output is None:
        print(text)
    else:
        # built fully before writing: no partial files on error
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror or exc}")


COMMANDS = {
    "estimate": cmd_estimate,
    "mine": cmd_mine,
    "compare": cmd_compare,
    "attack-demo": cmd_attack_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "transcript_dump", False) and args.format == "csv":
            raise ValueError("--transcript-dump has no csv rendering; use --format json or table")
        # mine's csv holds only the rules, with no room for the exact diff
        if args.command == "mine" and args.with_exact_oracle and args.format == "csv":
            raise ValueError("mine --with-exact-oracle has no csv rendering; use --format json or table")
        return COMMANDS[args.command](args)
    except FileError as exc:
        print(f"qpdm: error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except ValueError as exc:
        print(f"qpdm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
