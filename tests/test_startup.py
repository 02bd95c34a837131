"""Importing qpdm loads numpy with a one-thread OpenBLAS pool and leaves the
environment as it was; a caller's own thread setting or an earlier numpy
import wins. Neither the import nor a command loads the gate-level engine
qpdm.qsim or the dataclasses module, and a command leaves numpy.fft and
numpy.random unloaded. A process that imported qpdm.cli freezes its heap at
exit and still writes its whole report. Each case runs in a fresh
interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MINE_MARKET = ["mine", "--db", "demos/data/market.csv", "--split", "2", "--s", "0.3", "--c", "0.6", "--seed", "11"]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# prints whether os.environ changed across the imports, then Threads on Linux
PROBE = """
import os
before = dict(os.environ)
{imports}
print(dict(os.environ) == before)
print(os.environ.get("OPENBLAS_NUM_THREADS"))
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("Threads:")))
"""


def probe(imports, **variables):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_starts_one_blas_thread():
    unchanged, openblas, *threads = probe("import qpdm")
    assert (unchanged, openblas) == ("True", "None")
    if not sys.platform.startswith("linux"):
        pytest.skip("Threads is read from /proc/self/status")
    assert threads == ["1"]


@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_callers_setting_wins(variable):
    unchanged, openblas, *_ = probe("import qpdm", **{variable: "2"})
    assert unchanged == "True"
    assert openblas == ("2" if variable == "OPENBLAS_NUM_THREADS" else "None")


def test_numpy_imported_first_is_left_alone():
    unchanged, openblas, *_ = probe("import numpy\nimport qpdm")
    assert (unchanged, openblas) == ("True", "None")


def run_python(*args):
    """The stdout of a fresh interpreter run with args from the repository root."""
    result = subprocess.run(
        [sys.executable, *args],
        cwd=SRC.parent, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_import_leaves_qsim_unloaded():
    # the package root resolves the engine's names on first access
    code = (
        "import sys\n"
        "import qpdm\n"
        "print('qpdm.qsim' in sys.modules)\n"
        "from qpdm import qsim\n"
        "print(qpdm.SparseState is qsim.SparseState, qpdm.RegisterLayout is qsim.RegisterLayout,"
        " qpdm.MeasurementOutcome is qsim.MeasurementOutcome, hasattr(qpdm, 'NoSuchName'))\n"
    )
    assert run_python("-c", code).decode().split() == ["False", "True", "True", "True", "False"]


def test_import_leaves_dataclasses_unloaded():
    # qpdm's records are plain slotted classes, which generate no code
    code = "import sys\nimport qpdm\nprint('dataclasses' in sys.modules)\n"
    assert run_python("-c", code).decode().split() == ["False"]


@pytest.mark.parametrize(
    "argv",
    [
        MINE_MARKET,
        ["estimate", "--db", "demos/data/market.csv", "--items", "1,2", "--split", "2", "--seed", "3"],
        ["compare", "--db", "demos/data/market.csv", "--items", "1,2", "--split", "2", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_leaves_fft_and_random_unloaded(argv):
    # the readout is a closed form, so no FFT; the seeded streams come from
    # qpdm's own PCG64, so no numpy.random; a count reads the joint
    # column, so no qsim; qpdm's records are plain classes, so no dataclasses
    code = (
        "import sys\n"
        "from qpdm import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print([m for m in ('numpy.fft', 'numpy.random', 'qpdm.qsim', 'dataclasses') if m in sys.modules])\n"
    )
    assert run_python("-c", code).decode().splitlines()[-1] == "[]"


def test_heap_frozen_at_exit():
    # a handler registered before qpdm.cli is imported runs after cli's own
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from qpdm import cli\n"
        f"assert cli.main({MINE_MARKET!r}) == 0\n"
    )
    assert run_python("-c", code).decode().splitlines()[-1] == "frozen True"


def test_module_run_writes_the_whole_report(tmp_path):
    golden = (SRC.parent / "tests" / "data" / "mine_market_seed11.json").read_bytes()
    argv = ["-m", "qpdm.cli", *MINE_MARKET, "--with-exact-oracle"]
    assert run_python(*argv) == golden
    out = tmp_path / "mine.json"
    assert run_python(*argv, "--output", str(out)) == b""
    assert out.read_bytes() == golden
