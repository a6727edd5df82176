"""Command-line surface: ``radical`` (factor one value), ``decompose``
(constructive split, optionally verified), ``count`` (class counters),
``scan`` (range verification, oracle comparison, or representability
probe) and ``logratio`` (the exploratory weighted-count ratio table).

One argparse parser, built from ``COMMANDS``, gives every command
``--json``/``--csv``.  ``_main`` times a command's computation alone,
after its library modules are imported, and prints the records it
returns, ``(params, result, rows, human, ok)``, under one contract:

- ``--json``: one JSON object per line, the rows first, then a single
  envelope with command, params, result and elapsed_ms;
- ``--csv``: a header row then the rows, or, for a command without rows,
  its human-mode record (the result; for ``radical`` the flat record
  with a ``factorization`` string in place of the ``factors`` pairs);
- default: one key=value line per record, the rows then the result.
  The ``scan --gamma`` probe shows only its failing rows before the
  result, and ``logratio`` shows its rows with no result line.

Rows come as a table of columns, ``(key, kind, column)`` per key, with
no record per row: a form's line for a row is one ``%`` template over
the columns, each column's values first converted to the text of its
kind in that form (``_CONVERTERS``).  A scan's columns are
read once, as they print.  The result record prints the same way in
human and CSV form, as a table of one row whose kinds are its values'
types, and a CSV header is a row of its keys as text; only the JSON
envelope, which nests, is printed by ``json.dumps``.  Every form is
written in blocks of 4096 records, one write each, and CSV lines end
in CR LF (``\\r\\n``), as the ``csv`` module writes them.

A ``ValueError`` raised by the library becomes one ``error:`` line on
stderr and exit status 1, a usage error exits 2, and output cut short
by a closed pipe exits 1 with nothing on stderr.  Otherwise the exit
status is 0 exactly when the command succeeded and, where verification
was requested or implied, verification passed.  ``main``, the process
entry, ends the process with that status once its output is flushed.
"""

import argparse
import json
import math
import os
import re
import sys
import time
from functools import partial
from itertools import chain, islice, repeat, tee
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__

# The library modules are imported inside the commands that use them, so
# a command loads only what it runs (decompose, radical and a verify scan
# never load numpy; count and logratio load it only for a squarefree count
# past 2**18).  They are bound as modules and their functions looked up
# at call time, where patches applied to the modules take effect.


def _none_as(text: str):
    """The converter that puts ``text`` for each None of a column and leaves every other value to the template."""
    return lambda column: map({None: text}.get, *tee(column))


_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields: quoted, its quotes doubled, when it holds a comma, quote or line break."""
    return text if _CSV_SPECIAL.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


_BOOL_WORDS = partial(map, ("false", "true").__getitem__)

# per form, the converter of a column of each kind, mapped over the column before the
# template's ``%s`` formats each value (None: the column as it is).  A kind's text is what
# json.dumps and csv.writer give its values, and in human form true/false, - for None and
# floats to 6 significant digits: csv writes True/False, and None as an empty field.  Row
# floats are finite, and a str column is text such as a quality, a reason or a key.
_CONVERTERS = {
    "human": {int: None, bool: _BOOL_WORDS, int | None: _none_as("-"), float: lambda column: map(format, column, repeat(".6g")), str: None},
    "json": {int: None, bool: _BOOL_WORDS, int | None: _none_as("null"), float: None, str: partial(map, encode_basestring_ascii)},
    "csv": {int: None, bool: None, int | None: _none_as(""), float: None, str: partial(map, _csv_field)},
}


def _lines(table, form: str):
    """The lines of a table's rows in ``form``, lazily: one ``%``-template over its columns, ``(key, kind, column)`` per key."""
    keys = [key for key, _, _ in table]
    if form == "human":
        template = " ".join(f"{key}=%s" for key in keys) + "\n"
    elif form == "json":
        template = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in keys) + "}\n"
    else:
        template = ",".join(["%s"] * len(keys)) + "\r\n"
    converters = _CONVERTERS[form]
    columns = (column if converters[kind] is None else converters[kind](column) for _, kind, column in table)
    lines = map(template.__mod__, zip(*columns))
    # as csv.writer does, a lone empty field is quoted, to tell it from a blank line
    return map({"\r\n": '""\r\n'}.get, *tee(lines)) if form == "csv" and len(keys) == 1 else lines


def _record(record: dict) -> tuple:
    """A record as a table of one row: each value's kind is its type, None's ``int | None``, and a value of any other type is its ``str``."""
    kinds = _CONVERTERS["human"]
    return tuple(
        (key, int | None, [value]) if value is None else (key, type(value), [value]) if type(value) in kinds else (key, str, [str(value)])
        for key, value in record.items()
    )


# lines formatted and written per write; one write per line costs
# about as much as formatting it
_ECHO_BLOCK = 4096


def _echo_lines(lines) -> None:
    """Write the iterable's lines, each with its end, ``_ECHO_BLOCK`` per write; a line is formatted as it is read."""
    lines = iter(lines)
    while text := "".join(islice(lines, _ECHO_BLOCK)):
        sys.stdout.write(text)


def _emit(command: str, params: dict, result: dict, rows, human, elapsed_ms: float, as_json: bool, as_csv: bool) -> None:
    """Print a command's records per the module contract.

    ``rows`` is the command's table (``()`` for none), and ``human`` None
    means the human form is the rows then the result; otherwise it is
    ``(table, record)``, the record None for none.  Of the two tables,
    only the one printed is read, once.
    """
    if as_json:
        envelope = {"command": command, "params": params, "result": result, "elapsed_ms": elapsed_ms}
        _echo_lines(chain(_lines(rows, "json"), [json.dumps(envelope) + "\n"]))
    elif as_csv:
        lines = _lines(rows, "csv")
        first = next(lines, None)
        if first is None:  # no rows: the human record
            rows = _record(result if human is None else human[1])
            lines = _lines(rows, "csv")
        else:
            lines = chain([first], lines)
        _echo_lines(chain(_lines([(key, str, [key]) for key, _, _ in rows], "csv"), lines))
    else:
        table, record = (rows, result) if human is None else human
        tail = () if record is None else _lines(_record(record), "human")
        _echo_lines(chain(_lines(table, "human"), tail))


# Each command loads its library modules and checks its options, then
# returns its computation, ``run() -> (params, result, rows, human, ok)``,
# which the clock of ``elapsed_ms`` times alone.  ``ok`` False exits 1.


def cmd_radical(m: int):
    """Print k(M) and the factorization of M."""
    from . import kernel

    def run():
        fac = kernel.factorize(m)
        factor_text = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fac.factors) or "1"
        result = {"m": m, "radical": fac.radical(), "factors": [[p, e] for p, e in fac.factors]}
        flat = {"m": m, "radical": fac.radical(), "factorization": factor_text}
        return {"m": m}, result, (), ((), flat), True

    return run


def cmd_decompose(n: int, verify_mode: str | None):
    """Split N into m1 + m2 with k(m)**4 <= 432 m**2 for both parts."""
    from . import decompose as dec

    def run():
        d = dec.split(n)
        verified: bool | None = None
        if verify_mode == "structural" and d.witness is not None:
            verified = bool(dec.verify_structural(d))
        elif verify_mode is not None:
            verified = dec.verify_exact(d)
        result = d.to_record() | {"verified": verified}
        return {"n": n, "verify": verify_mode}, result, (), None, verify_mode is None or verified

    return run


def cmd_count(theta_text: str | None, gamma: float | None, limit: int):
    """Count members up to --limit for one exponent parameter."""
    if (theta_text is None) == (gamma is None):
        raise argparse.ArgumentError(None, "exactly one of --theta / --gamma is required")
    from . import powered as pwd

    def run():
        if theta_text is not None:
            report = pwd.count_members(limit, pwd.Theta.parse(theta_text))
        else:
            report = pwd.count_log_weighted(limit, gamma)
        name, value = report.param
        return {name: value, "limit": limit}, report.to_record(), (), None, True

    return run


def cmd_scan(n_lo: int, n_hi: int, gamma: float | None, use_oracle: bool, force: bool):
    """Verify split(n) over a range; --oracle and --gamma switch modes."""
    if use_oracle and gamma is not None:
        raise argparse.ArgumentError(None, "--oracle and --gamma are mutually exclusive")
    mode = "oracle" if use_oracle else "probe" if gamma is not None else "verify"
    if mode == "verify":
        from . import decompose as dec
    else:
        from . import oracle as orc
    if mode == "probe":
        from . import powered as pwd

    def run():
        params = {"from": n_lo, "to": n_hi, "mode": mode}
        if mode == "verify":
            report = dec.verify_range(n_lo, n_hi)
        elif mode == "oracle":
            report = orc.constructive_vs_oracle(n_lo, n_hi, force=force)
        else:
            report = orc.conjecture_probe(n_lo, n_hi, pwd._log_weighted_class(gamma), force=force)
            params.update([report.param])
        rows, result = report.columns(), report.summary_record()
        if mode == "probe":  # failing n are data, not verification failures
            return params, result, rows, (report.failing_columns(), result), True
        return params, result, rows, None, not report.violations

    return run


def _grid(limit: int, points: int):
    """Yield the distinct x of ``logratio``'s grid, largest first: limit, then each max(10, round(limit ** (i / points))) below it, 1 <= i <= points.

    The x do not rise as i falls, so a run of i that rounds to one x is
    skipped: a grid costs one or two evaluations per distinct x.  From
    2 * limit * ln(limit) points on, every integer in [10, limit] is a
    point, so ``points`` is cut to 2 * limit * limit.bit_length(): the
    grid stays the same, and the float bound on i neither overflows nor
    loses the precision to skip a run.
    """
    yield limit
    last = limit
    i = points = min(points, 2 * limit * limit.bit_length())
    while i >= 1 and last > 10:
        x = max(10, round(limit ** (i / points)))
        if x < last:
            yield x
            last = x
        # every i that rounds below x is at most this bound from the logarithms; if the bound
        # itself still rounds to x, the next pass steps one below it
        i = min(i - 1, math.ceil(points * math.log(x - 0.5) / math.log(limit)))


def cmd_logratio(limit: int, gamma: float, points: int):
    """Exploratory table: weighted count over (ln x)**gamma * sqrt-class count.

    Reports N_gamma(x) / ((ln x)**gamma * S(x)) on a geometric grid,
    where N_gamma counts k(m)**2 <= m ln(m)**(2 gamma) and S counts the
    theta = 1/2 class.  No pass/fail judgment is attached; at feasible x
    the ratio drifts slowly and is not expected to settle.
    """
    if limit < 10:
        raise argparse.ArgumentError(None, "--limit must be at least 10")
    if points < 1:
        raise argparse.ArgumentError(None, "--points must be at least 1")
    from . import powered as pwd

    def run():
        rows = pwd.log_ratio_table(_grid(limit, points), gamma)
        result = {"limit": limit, "gamma": gamma, "points": len(rows)}
        kinds = {"x": int, "weighted_count": int, "half_count": int, "ratio": float}
        table = tuple((key, kind, [row[key] for row in rows]) for key, kind in kinds.items())
        return {"limit": limit, "gamma": gamma}, result, table, (table, None), True

    return run


_INT = {"type": int, "metavar": "INTEGER"}
_FLOAT = {"type": float, "metavar": "FLOAT"}

# name: (command, its arguments as (name, add_argument keywords)); every
# command also takes the output forms and --help
COMMANDS = {
    "radical": (cmd_radical, [("m", {"type": int, "metavar": "M"})]),
    "decompose": (cmd_decompose, [
        ("n", {"type": int, "metavar": "N"}),
        ("--verify", {"dest": "verify_mode", "choices": ["structural", "exact"], "help": "Check the result; structural falls back to exact for n in {4,5,6}."}),
    ]),
    "count": (cmd_count, [
        ("--theta", {"dest": "theta_text", "metavar": "TEXT", "help": "Exact exponent as p/q, e.g. 1/2."}),
        ("--gamma", {**_FLOAT, "help": "Log-weight exponent."}),
        ("--limit", {**_INT, "required": True, "help": "Count members up to this x."}),
    ]),
    "scan": (cmd_scan, [
        ("--from", {**_INT, "dest": "n_lo", "required": True, "help": "First n, inclusive (>= 4)."}),
        ("--to", {**_INT, "dest": "n_hi", "required": True, "help": "Last n, inclusive."}),
        ("--gamma", {**_FLOAT, "help": "Probe log-weighted representability instead."}),
        ("--oracle", {"dest": "use_oracle", "action": "store_true", "help": "Compare against the exhaustive optimum."}),
        ("--force", {"action": "store_true", "help": "Run an oracle or probe scan past its budget of 60 s and 1 GiB."}),
    ]),
    "logratio": (cmd_logratio, [
        ("--limit", {**_INT, "required": True, "help": "Largest x in the table."}),
        ("--gamma", {**_FLOAT, "default": 1.0, "help": "Weight exponent. [default: %(default)s]"}),
        ("--points", {**_INT, "default": 5, "help": "Geometric grid size. [default: %(default)s]"}),
    ]),
}
_COMMON = [
    ("--csv", {"dest": "as_csv", "action": "store_true", "help": "Header row then data rows."}),
    ("--json", {"dest": "as_json", "action": "store_true", "help": "One JSON object per line."}),
    ("--help", {"action": "help", "help": "Show this message and exit."}),
]


def _main(args=None, prog_name: str | None = None):
    """Parse ``args`` (default ``sys.argv[1:]``), run the command and print it; end in ``SystemExit`` with its status, per the module contract."""
    # a fixed width: help wraps alike on every terminal, and argparse does not import shutil to ask
    form = {"formatter_class": partial(argparse.RawDescriptionHelpFormatter, width=80), "allow_abbrev": False, "add_help": False}
    parser = argparse.ArgumentParser(prog_name, description="Kernel arithmetic and certified two-part decompositions.", **form)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}", help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="Commands", dest="command", required=True, metavar="COMMAND")
    for name, (fn, arguments) in COMMANDS.items():
        doc = "\n".join(map(str.strip, (fn.__doc__ or "").splitlines()))
        sub = commands.add_parser(name, help=doc.partition("\n")[0], description=doc, **form)
        # an option's value may be any float: argparse would read -1e308, -inf or -nan as an option string
        sub._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        for option, spec in arguments + _COMMON:
            sub.add_argument(option, **spec)
    opts = vars(parser.parse_args(args))
    name, as_json, as_csv = opts.pop("command"), opts.pop("as_json"), opts.pop("as_csv")
    try:
        if as_json and as_csv:
            raise argparse.ArgumentError(None, "--json and --csv are mutually exclusive")
        run = COMMANDS[name][0](**opts)
        t0 = time.perf_counter()
        params, result, rows, human, ok = run()
        elapsed_ms = round((time.perf_counter() - t0) * 1000, 3)
    except argparse.ArgumentError as exc:
        commands.choices[name].error(str(exc))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)
    try:
        _emit(name, params, result, rows, human, elapsed_ms, as_json, as_csv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: exit 1 quietly, with stdout on devnull so that the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0 if ok else 1)


# the in-process entry, with click's calling convention, which click.testing.CliRunner
# uses: cli.main(args, prog_name=cli.name) ends in SystemExit with the command's status
cli = SimpleNamespace(name="kernsplit", main=_main)


def main():
    # no command calls BLAS: spare numpy's import its idle OpenBLAS workers, unless the user chose a count
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        cli.main(prog_name=cli.name)
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        # with its output flushed, the process ends at once: the interpreter's teardown would only
        # free what the process made.  A flush that raises leaves the exit to the interpreter.
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):
            raise exc from None
        os._exit(exc.code or 0)


if __name__ == "__main__":
    main()
