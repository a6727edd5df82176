"""What a fresh interpreter loads: each command imports only the modules it runs.

Every test starts a new Python process, since the test process itself
has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kernsplit

SRC = str(Path(kernsplit.__file__).resolve().parents[1])

# runs the CLI in-process, then prints the loaded module names on the last line
RUN_CLI = """
import sys
from kernsplit.cli import cli
try:
    cli.main(sys.argv[1:], prog_name="kernsplit")
except SystemExit as exc:
    if exc.code:
        raise
print(" ".join(sorted(sys.modules)))
"""


def fresh(code: str, *args: str) -> str:
    """stdout of ``python -c code args`` with this checkout's kernsplit first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(*args: str) -> set[str]:
    return set(fresh(RUN_CLI, *args).splitlines()[-1].split())


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--theta", "1/2", "--limit", "20025018"],
        ["count", "--gamma", "0", "--limit", "20025018"],
        ["decompose", "100", "--verify", "structural"],
        ["radical", "360"],
        # e**(2*gamma) = e > 2: b = 1 takes the search around t = e / b
        ["count", "--gamma", "0.5", "--limit", "20025018"],
        ["scan", "--from", "4", "--to", "1000000"],
    ],
)
def test_command_runs_without_numpy_or_mpmath(args):
    loaded = modules_after(*args)
    assert "kernsplit.cli" in loaded
    assert not {"numpy", "mpmath"} & loaded


def test_verify_scan_loads_neither_oracle_nor_powered():
    loaded = modules_after("scan", "--from", "4", "--to", "1000")
    assert "kernsplit.decompose" in loaded
    assert not {"kernsplit.oracle", "kernsplit.powered"} & loaded


def test_oracle_scan_loads_no_powered():
    loaded = modules_after("scan", "--from", "4", "--to", "1000", "--oracle")
    assert "kernsplit.oracle" in loaded
    assert "kernsplit.powered" not in loaded


def test_gamma_zero_probe_decides_in_integers():
    loaded = modules_after("scan", "--from", "4", "--to", "20000", "--gamma", "0")
    assert "numpy" in loaded and "mpmath" not in loaded


def test_import_loads_no_submodule():
    code = "import sys, kernsplit; print(sorted(m for m in sys.modules if m.startswith('kernsplit.')))"
    assert fresh(code).strip() == "[]"


def test_public_names_resolve():
    code = """
import kernsplit
missing = [n for n in kernsplit.__all__ if n not in dir(kernsplit)]
unresolved = [n for n in kernsplit.__all__ if getattr(kernsplit, n) is None]
print(len(kernsplit.__all__), missing, unresolved, hasattr(kernsplit, "no_such_name"))
"""
    assert fresh(code).split() == [str(len(kernsplit.__all__)), "[]", "[]", "False"]
