"""What a fresh interpreter loads: each command imports only the modules it runs.

Every test starts a new Python process, since the test process itself
has long since imported everything.
"""

import importlib
import json
import os
import re
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


def child_env(environ: dict | None = None) -> dict:
    """``environ`` (default this process's) with this checkout's kernsplit first on the path."""
    environ = os.environ if environ is None else environ
    return dict(environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")])))


def python(*args: str, environ: dict | None = None) -> subprocess.CompletedProcess:
    """``python args`` in ``child_env(environ)``, its output captured through pipes."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env(environ), timeout=120)


def fresh(code: str, *args: str, environ: dict | None = None) -> str:
    """stdout of ``python -c code args``."""
    proc = python("-c", code, *args, environ=environ)
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
    # argparse parses and NamedTuples hold the records: neither click nor dataclasses, nor the inspect both import
    loaded = modules_after(*args)
    assert "kernsplit.cli" in loaded
    assert not {"numpy", "mpmath", "csv", "click", "dataclasses", "inspect"} & loaded


def test_clock_starts_after_the_modules_load():
    # elapsed_ms times the computation alone: an oracle scan's first clock reading comes after its imports
    code = """
import sys, time
from kernsplit.cli import cli
readings, clock = [], time.perf_counter

def recording():
    readings.append({"kernsplit.oracle", "numpy"} <= sys.modules.keys())
    return clock()

time.perf_counter = recording
try:
    cli.main(sys.argv[1:], prog_name="kernsplit")
except SystemExit as exc:
    if exc.code:
        raise
print(readings[0])
"""
    assert fresh(code, "scan", "--from", "4", "--to", "10", "--oracle", "--json").splitlines()[-1] == "True"


def test_no_output_form_loads_csv():
    # the result record prints through the rows' converters in every form: csv.writer is not needed
    for form in ([], ["--json"], ["--csv"]):
        assert "csv" not in modules_after("radical", "360", *form), form


def test_verify_scan_loads_neither_oracle_nor_powered():
    loaded = modules_after("scan", "--from", "4", "--to", "1000")
    assert "kernsplit.decompose" in loaded
    assert not {"kernsplit.oracle", "kernsplit.powered"} & loaded


def test_oracle_scan_loads_no_powered():
    loaded = modules_after("scan", "--from", "4", "--to", "1000", "--oracle")
    assert "kernsplit.oracle" in loaded
    assert "kernsplit.powered" not in loaded


def test_probe_loads_only_the_class_it_is_handed():
    # the CLI builds the probe's class; the library scans any class without loading powered
    code = "import sys; from kernsplit import kernel, oracle; oracle.conjecture_probe(4, 2000, kernel.quality(1)); print('kernsplit.powered' in sys.modules)"
    assert fresh(code).strip() == "False"


def test_gamma_zero_probe_decides_in_integers():
    loaded = modules_after("scan", "--from", "4", "--to", "20000", "--gamma", "0")
    assert "numpy" in loaded and "mpmath" not in loaded
    assert not {"kernsplit.decompose", "fractions"} & loaded  # the probe splits no n and ranks no pair exactly


def test_near_tie_is_decided_with_decimal():
    # m = 12 (k = 6) sits within the near-tie band of this gamma and is re-decided a member
    loaded = modules_after("count", "--gamma", "0.6034772207069685", "--limit", "100")
    assert "decimal" in loaded and "mpmath" not in loaded


@pytest.mark.parametrize("args", [["scan", "--from", "7", "--to", "1000"], ["decompose", "100", "--verify", "structural"]])
def test_structural_checks_load_no_kernel(args):
    assert "kernsplit.kernel" not in modules_after(*args)


def test_radical_loads_kernel():
    assert "kernsplit.kernel" in modules_after("radical", "360")


def test_import_loads_no_submodule():
    code = "import sys, kernsplit; print(sorted(m for m in sys.modules if m.startswith('kernsplit.')))"
    assert fresh(code).strip() == "[]"


def test_module_names_resolve():
    # each public name is listed by one module's __all__ and resolves from that module, which defines it; the package root lists none
    modules = [importlib.import_module(f"kernsplit.{name}") for name in ("kernel", "powered", "decompose", "oracle")]
    public = [(module, name) for module in modules for name in module.__all__]
    assert len({name for _, name in public}) == len(public)
    home = {name: getattr(getattr(module, name), "__module__", module.__name__) for module, name in public}
    assert [name for module, name in public if home[name] != module.__name__] == []
    assert not hasattr(kernsplit, "__all__")


class TestEntryPoint:
    """``python -m kernsplit.cli``, the path of the console script: ``main``."""

    def test_json_rows_then_envelope(self):
        proc = python("-m", "kernsplit.cli", "scan", "--from", "4", "--to", "300", "--oracle", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        *rows, envelope = map(json.loads, proc.stdout.splitlines())
        assert [row["n"] for row in rows] == list(range(4, 301)) and all(row["ok"] for row in rows)
        assert envelope["command"] == "scan" and envelope["result"]["checked"] == 297

    def test_refusal_is_one_error_line(self):
        proc = python("-m", "kernsplit.cli", "scan", "--from", "4", "--to", "2000000", "--oracle")
        assert (proc.returncode, proc.stdout) == (1, "")
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: scan of [4, 2000000] implies") and "--force" in line

    def test_version_from_the_source_tree(self):
        # the version is the package's own, not installed metadata, which a source checkout lacks
        proc = python("-m", "kernsplit.cli", "--version")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.rstrip().endswith(f"version {kernsplit.__version__}")

    def test_closed_pipe_exits_quietly(self):
        # the reader leaves after the first line, as `| head -1` does: exit 1, and no traceback on stderr
        args = "scan", "--from", "4", "--to", "100000", "--gamma", "0", "--json"
        child = subprocess.Popen([sys.executable, "-m", "kernsplit.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert child.stdout.readline().startswith(b'{"n": 4,')
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=120), stderr) == (1, b"")

    def test_usage_error(self):
        proc = python("-m", "kernsplit.cli", "radical", "360", "--json", "--csv")
        assert proc.returncode == 2 and "mutually exclusive" in proc.stderr

    @pytest.mark.parametrize(
        ("args", "status"),
        [
            (["scan", "--from", "4", "--to", "100000", "--gamma", "0", "--json"], 0),
            (["scan", "--from", "4", "--to", "3000", "--oracle", "--csv"], 0),
            (["radical", "0"], 1),
            (["radical", "360", "--json", "--csv"], 2),
        ],
        ids=["probe json", "oracle csv", "error", "usage"],
    )
    def test_main_exits_once_its_output_is_flushed(self, args, status):
        # main ends the process itself, after the flush: output in full, the command's status, and no atexit
        # handler, which the interpreter's own exit would run
        code = """
import atexit, sys
from kernsplit.cli import main
atexit.register(print, "atexit ran", file=sys.stderr)
main()
"""
        # the in-process entry, whose SystemExit the interpreter's exit handles
        usual = "import sys; from kernsplit.cli import cli; cli.main(sys.argv[1:], prog_name='kernsplit')"
        proc, ref = python("-c", code, *args), python("-c", usual, *args)
        assert proc.returncode == ref.returncode == status
        assert "atexit ran" not in proc.stderr and proc.stderr == ref.stderr
        masked = [re.sub(r'"elapsed_ms": [0-9.e+-]+', "", p.stdout) for p in (proc, ref)]
        assert masked[0] == masked[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_main_starts_no_blas_worker(self):
        # no command calls BLAS, so main keeps numpy's OpenBLAS to the main thread, unless the user set a count;
        # the threads are counted as main ends the process
        code = """
import os, sys
from kernsplit.cli import main
exit = os._exit

def counting(status):
    assert status == 0 and "numpy" in sys.modules, status
    print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"), flush=True)
    exit(status)

os._exit = counting
main()
"""
        args = "scan", "--from", "4", "--to", "10", "--oracle"
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert fresh(code, *args, environ=unset).splitlines()[-1] == "1 1"
        preset = fresh(code, *args, environ=unset | {"OPENBLAS_NUM_THREADS": "2"})
        assert preset.splitlines()[-1].split()[1] == "2"
