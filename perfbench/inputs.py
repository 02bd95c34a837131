"""Seeded inputs for the benchmark workloads.

Every workload is one ``qpdm`` command line over one input file. The file and
the per-command ``--seed`` values derive from the workload seed alone, so the
same seed always gives the same inputs, and the program sees nothing but
generated files and flags.
"""
from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MARKET_CSV = ROOT / "demos" / "data" / "market.csv"

FLIP_RATE = 0.005  # per-cell noise, so each seed gives slightly different supports


def basket_bits(
    rows: int, baskets: tuple[tuple[tuple[int, ...], int], ...], rng: np.random.Generator
) -> np.ndarray:
    """A rows x k 0/1 matrix built from (itemset, row count) basket patterns.

    The patterns fix every itemset's support up to the flip noise; the rest of
    the rows are empty. The seed decides the noise and the row order.
    """
    k = max(max(items) for items, _ in baskets)
    bits = np.zeros((rows, k), dtype=np.uint8)
    at = 0
    for items, count in baskets:
        bits[at : at + count, [i - 1 for i in items]] = 1
        at += count
    if at > rows:
        raise ValueError(f"baskets need {at} rows, only {rows} available")
    bits ^= (rng.random(bits.shape) < FLIP_RATE).astype(np.uint8)
    return bits[rng.permutation(rows)]


def write_csv(path: Path, bits: np.ndarray) -> None:
    header = ",".join(f"i{j + 1}" for j in range(bits.shape[1]))
    body = "\n".join(",".join("1" if b else "0" for b in row) for row in bits)
    path.write_text(f"{header}\n{body}\n", encoding="utf-8")


def read_bits(path: Path) -> np.ndarray:
    """The 0/1 matrix of a CSV database, read without the program under test."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    cells = [[int(c) for c in line.split(",")] for line in lines if line.strip()]
    return np.array(cells, dtype=np.uint8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # qpdm sub-command: "mine" or "compare"
    split: int
    s: float
    flags: tuple[str, ...]  # every flag except --db and --seed
    rows: int = 0  # 0: copy the demo basket file instead of generating
    baskets: tuple[tuple[tuple[int, ...], int], ...] = ()
    items: tuple[int, ...] = ()  # the compared itemset, for "compare"
    c: float | None = None
    p: int | None = None  # None: the CLI default for s

    def make_input(self, directory: Path, seed: int) -> Path:
        path = directory / f"{self.name}.csv"
        if self.rows == 0:
            shutil.copyfile(MARKET_CSV, path)
        else:
            rng = np.random.default_rng([seed, self.rows])
            write_csv(path, basket_bits(self.rows, self.baskets, rng))
        return path

    def argv(self, db: Path, cli_seed: int) -> list[str]:
        return [self.command, "--db", str(db), "--seed", str(cli_seed), *self.flags]


def cli_seed(workload: str, seed: int, index: int) -> int:
    """The --seed of the index-th command of a run."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(1 << 31)


# mine-wide's baskets keep every itemset support at least 0.05 from s and every
# rule confidence at least 0.19 from c, so the set of candidates, and with it
# the work of a command, is the same for every seed: 35 Apriori candidates, 22
# frequent itemsets, 62 rules. Its band of 0.2 s (0.03) spans one readout bin
# at P=128; with the default band two counts agree only on the same bin, and
# the number of rounds per command varies too much for a steady wall time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mine-market",
            why="reference user run: 18 counts at P=8192 on the 16-row demo file; time in the walk loop and transcript",
            command="mine",
            split=2,
            s=0.3,
            c=0.6,
            flags=("--split", "2", "--s", "0.3", "--c", "0.6", "--with-exact-oracle"),
        ),
        Workload(
            name="mine-wide",
            why="35 candidates, 76 counts at P=128 on 1024 rows, modadd keys: the qsim oracle is the largest share, exact_mine a fifth",
            command="mine",
            split=4,
            s=0.15,
            c=0.5,
            p=7,
            flags=(
                "--split", "4", "--s", "0.15", "--c", "0.5", "--p", "7", "--band", "0.2",
                "--enc", "modadd", "--with-exact-oracle",
            ),
            rows=1 << 10,
            baskets=(
                ((1, 2, 3, 5), 270), ((2, 3, 4), 30), ((1, 2, 6), 50),
                ((3, 5, 8), 60), ((4, 6, 7), 250), ((8,), 40), ((7,), 50),
                ((2,), 10), ((1, 4), 70),
            ),
        ),
        Workload(
            name="compare-deep",
            why="one cross-party pair at P=8192 on 4096 rows: a 512 MB walk, bandwidth-bound, plus the classical baseline",
            command="compare",
            split=3,
            s=0.25,
            items=(3, 4),
            flags=("--split", "3", "--items", "3,4", "--s", "0.25"),
            rows=1 << 12,
            baskets=(
                ((1, 2, 3, 4), 820), ((1, 2), 600), ((1, 5), 400),
                ((2, 6), 300), ((3, 5, 6), 250), ((4,), 200),
            ),
        ),
    )
}
