"""Import boundaries: serving paths never load numpy or the process pool.

A host toolchain starts one process per query, so what it waits for is
process start plus imports.  ``import repro``, ``--help``, cachedb
queries and store/cachedb hits answer without the vectorized kernels,
numpy or the worker-pool machinery; only a live solve (or a batch,
study or sweep fan-out) loads them.  Each case runs in a fresh
interpreter and inspects ``sys.modules`` -- a structural check with no
wall-clock bound.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules only a live solve or a fan-out may load.
HEAVY = (
    "numpy",
    "repro.array.kernels",
    "repro.core.parallel",
    "concurrent.futures.process",
    "multiprocessing",
)

_SCRIPT = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(body: str) -> set[str]:
    """``sys.modules`` after running ``body`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.fspath(_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(body=body)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli(argv: list[str]) -> str:
    """A script body that runs the CLI and requires it to succeed."""
    return (
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main({argv!r}) == 0\n"
    )


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A small cachedb artifact and a sqlite store holding one solve."""
    root = tmp_path_factory.mktemp("serving")
    db = root / "db.json"
    store = f"sqlite:{root / 'solves.db'}"
    assert main([
        "cachedb", "build", str(db), "--capacities", "64K,256K",
        "--techs", "sram", "--jobs", "1",
    ]) == 0
    assert main([
        "cache", "--capacity", "64K", "--cache", store, "--jobs", "1",
    ]) == 0
    return {"db": str(db), "store": store}


CASES = {
    "import-repro": lambda a: "import repro",
    "help": lambda a: (
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        repro.cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
    ),
    "cachedb-query-exact": lambda a: cli(
        ["cachedb", "query", a["db"], "--capacity", "64K"]
    ),
    "cachedb-query-interpolated": lambda a: cli(
        ["cachedb", "query", a["db"], "--capacity", "128K"]
    ),
    "cache-cachedb-hit": lambda a: cli(
        ["cache", "--capacity", "64K", "--cachedb", a["db"]]
    ),
    "cache-store-hit": lambda a: cli(
        ["cache", "--capacity", "64K", "--cache", a["store"]]
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_serving_path_loads_no_heavy_module(case, artifacts):
    loaded = loaded_modules(CASES[case](artifacts))
    assert [name for name in HEAVY if name in loaded] == []


def test_live_solve_loads_the_kernels():
    # The positive control: without it a broken probe would pass above.
    loaded = loaded_modules(cli(["cache", "--capacity", "64K"]))
    assert {"numpy", "repro.array.kernels"} <= loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["cachedb", "query", "{db}", "--capacity", "128K"],
        ["cache", "--capacity", "64K", "--cache", "{store}"],
    ],
    ids=["cachedb-query", "cache-store-hit"],
)
def test_serving_path_answers_without_numpy(argv, artifacts):
    argv = [arg.format(**artifacts) for arg in argv]
    # Any ``import numpy`` now raises ImportError; the CLI must still
    # exit 0 (``loaded_modules`` fails on a non-zero exit).
    body = "sys.modules['numpy'] = None\n" + cli(argv)
    assert "repro.array.kernels" not in loaded_modules(body)
