"""Command-line surface.

Four commands cover the library: ``radical`` (factor one value),
``decompose`` (constructive split, optionally verified), ``count``
(class counters), ``scan`` (range verification, oracle comparison, or
representability probe), plus ``logratio`` for the exploratory
weighted-count ratio table.

Every command returns its records, ``(params, result, rows, human,
ok)``, and ``_emits`` gives it ``--json``/``--csv``, times it and prints
them under one output contract:

- ``--json``: one JSON object per line, the rows first, then a single
  envelope with command, params, result and elapsed_ms, the time of the
  computation alone;
- ``--csv``: a header row then the rows, or, for a command without rows,
  its human-mode record (the result; for ``radical`` the flat record
  with a ``factorization`` string in place of the ``factors`` pairs);
- default: one key=value line per record, the rows then the result.
  The ``scan --gamma`` probe shows only its failing rows before the
  result, and ``logratio`` shows its rows with no result line.

Rows are read once, as they print: a scan builds each row only then.
Every form is formatted and written in blocks of 4096 records, one
write each, and CSV lines end in CR LF (``\\r\\n``), as the ``csv``
module writes them.

A ``ValueError`` raised by the library becomes one ``error:`` line on
stderr and exit status 1.  Otherwise the exit status is 0 exactly when
the command succeeded and, where verification was requested or implied,
verification passed.
"""

import functools
import gc
import json
import math
import os
import sys
import time
from itertools import chain, islice
from types import SimpleNamespace

import click

from . import __version__

# The library modules are imported inside the commands that use them, so
# a command loads only what it runs (decompose, radical and a verify scan
# never load numpy; count and logratio load it only for a squarefree count
# past 2**18).  They are bound as modules and their functions looked up
# at call time, where patches applied to the modules take effect.


def _human(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


# records formatted and written per click.echo call; one call per record
# costs about as much as formatting it
_ECHO_BLOCK = 4096


def _echo_lines(records, line) -> None:
    """Write ``line(rec)``, a line with its end, for each of the iterable records, ``_ECHO_BLOCK`` records per write.

    Each record is formatted as it is read, so a block holds its lines, not its records.
    """
    records = iter(records)
    while text := "".join(map(line, islice(records, _ECHO_BLOCK))):
        click.echo(text, nl=False)


def _emits(fn):
    """Give the command ``fn() -> (params, result, rows, human, ok)`` the ``--json``/``--csv`` options, and time, run and print it per the module contract.

    ``rows`` and ``human`` are iterables, of which one is read, once;
    ``human`` None means the rows then the result; ``ok`` False exits 1.
    """

    @click.option("--csv", "as_csv", is_flag=True, help="Header row then data rows.")
    @click.option("--json", "as_json", is_flag=True, help="One JSON object per line.")
    @functools.wraps(fn)
    def command(as_json: bool, as_csv: bool, **kwargs):
        if as_json and as_csv:
            raise click.UsageError("--json and --csv are mutually exclusive")
        t0 = time.perf_counter()
        try:
            params, result, rows, human, ok = fn(**kwargs)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        elapsed_ms = round((time.perf_counter() - t0) * 1000, 3)
        if as_json:
            envelope = {"command": click.get_current_context().command.name, "params": params, "result": result, "elapsed_ms": elapsed_ms}
            _echo_lines(chain(rows, [envelope]), lambda rec: json.dumps(rec) + "\n")
        elif as_csv:
            import csv

            records = iter(rows)
            first = next(records, None)
            if first is None:  # no rows: the human record
                records = iter([result] if human is None else human)
                first = next(records)
            # writerow returns what its file's write returns: with write=str, the formatted line and its \r\n
            line = csv.writer(SimpleNamespace(write=str)).writerow
            _echo_lines(chain([first.keys()], (rec.values() for rec in chain([first], records))), line)
        else:
            human = chain(rows, [result]) if human is None else human
            _echo_lines(human, lambda rec: " ".join(f"{k}={_human(v)}" for k, v in rec.items()) + "\n")
        if not ok:
            sys.exit(1)

    return command


@click.group()
@click.version_option(version=__version__)
def cli():
    """Kernel arithmetic and certified two-part decompositions."""


@cli.command("radical")
@click.argument("m", type=int)
@_emits
def cmd_radical(m: int):
    """Print k(M) and the factorization of M."""
    from . import kernel

    fac = kernel.factorize(m)
    factor_text = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fac.factors) or "1"
    result = {"m": m, "radical": fac.radical(), "factors": [[p, e] for p, e in fac.factors]}
    flat = {"m": m, "radical": fac.radical(), "factorization": factor_text}
    return {"m": m}, result, [], [flat], True


@cli.command("decompose")
@click.argument("n", type=int)
@click.option(
    "--verify",
    "verify_mode",
    type=click.Choice(["structural", "exact"]),
    default=None,
    help="Check the result; structural falls back to exact for n in {4,5,6}.",
)
@_emits
def cmd_decompose(n: int, verify_mode: str | None):
    """Split N into m1 + m2 with k(m)**4 <= 432 m**2 for both parts."""
    from . import decompose as dec

    d = dec.split(n)
    verified: bool | None = None
    if verify_mode == "structural" and d.witness is not None:
        verified = bool(dec.verify_structural(d))
    elif verify_mode is not None:
        verified = dec.verify_exact(d)
    result = d.to_record() | {"verified": verified}
    return {"n": n, "verify": verify_mode}, result, [], None, verify_mode is None or verified


@cli.command("count")
@click.option("--theta", "theta_text", default=None, help="Exact exponent as p/q, e.g. 1/2.")
@click.option("--gamma", "gamma", type=float, default=None, help="Log-weight exponent.")
@click.option("--limit", "limit", type=int, required=True, help="Count members up to this x.")
@_emits
def cmd_count(theta_text: str | None, gamma: float | None, limit: int):
    """Count members up to --limit for one exponent parameter."""
    from . import powered as pwd

    if (theta_text is None) == (gamma is None):
        raise click.UsageError("exactly one of --theta / --gamma is required")
    if theta_text is not None:
        theta = pwd.Theta.parse(theta_text)
        report = pwd.count_members(limit, theta)
        params = {"theta": str(theta), "limit": limit}
    else:
        report = pwd.count_log_weighted(limit, gamma)
        params = {"gamma": gamma, "limit": limit}
    return params, report.to_record(), [], None, True


@cli.command("scan")
@click.option("--from", "n_lo", type=int, required=True, help="First n, inclusive (>= 4).")
@click.option("--to", "n_hi", type=int, required=True, help="Last n, inclusive.")
@click.option("--gamma", "gamma", type=float, default=None, help="Probe log-weighted representability instead.")
@click.option("--oracle", "use_oracle", is_flag=True, help="Compare against the exhaustive optimum.")
@click.option("--force", "force", is_flag=True, help="Run an oracle or probe scan past its budget of 60 s and 1 GiB.")
@_emits
def cmd_scan(n_lo: int, n_hi: int, gamma: float | None, use_oracle: bool, force: bool):
    """Verify split(n) over a range; --oracle and --gamma switch modes."""
    if use_oracle and gamma is not None:
        raise click.UsageError("--oracle and --gamma are mutually exclusive")
    mode = "oracle" if use_oracle else "probe" if gamma is not None else "verify"
    params = {"from": n_lo, "to": n_hi, "mode": mode}
    if mode == "verify":
        from . import decompose as dec

        report = dec.verify_range(n_lo, n_hi)
    else:
        from . import oracle as orc

        if mode == "oracle":
            report = orc.constructive_vs_oracle(n_lo, n_hi, force=force)
        else:
            params["gamma"] = gamma
            report = orc.conjecture_probe(n_lo, n_hi, gamma, force=force)
    rows, result = report.to_rows(), report.summary_record()
    if mode == "probe":  # failing n are data, not verification failures
        return params, result, rows, chain((r for r in rows if not r["ok"]), [result]), True
    return params, result, rows, None, not report.violations


def _grid(limit: int, points: int):
    """Yield the distinct x of ``logratio``'s grid, largest first: limit, then each max(10, round(limit ** (i / points))) below it, 1 <= i <= points.

    The x do not rise as i falls, so a run of i that rounds to one x is
    skipped: a grid costs one or two evaluations per distinct x, however
    large ``points`` is.
    """
    yield limit
    last, i = limit, points
    while i >= 1 and last > 10:
        x = max(10, round(limit ** (i / points)))
        if x < last:
            yield x
            last = x
        # every i that rounds below x is at most this bound from the logarithms; if the bound
        # itself still rounds to x, the next pass steps one below it
        i = min(i - 1, math.ceil(points * math.log(x - 0.5) / math.log(limit)))


@cli.command("logratio")
@click.option("--limit", "limit", type=int, required=True, help="Largest x in the table.")
@click.option("--gamma", "gamma", type=float, default=1.0, show_default=True, help="Weight exponent.")
@click.option("--points", "points", type=int, default=5, show_default=True, help="Geometric grid size.")
@_emits
def cmd_logratio(limit: int, gamma: float, points: int):
    """Exploratory table: weighted count over (ln x)**gamma * sqrt-class count.

    Reports N_gamma(x) / ((ln x)**gamma * S(x)) on a geometric grid,
    where N_gamma counts k(m)**2 <= m ln(m)**(2 gamma) and S counts the
    theta = 1/2 class.  No pass/fail judgment is attached; at feasible x
    the ratio drifts slowly and is not expected to settle.
    """
    from . import powered as pwd

    if limit < 10:
        raise click.UsageError("--limit must be at least 10")
    if points < 1:
        raise click.UsageError("--points must be at least 1")
    rows = pwd.log_ratio_table(_grid(limit, points), gamma)
    result = {"limit": limit, "gamma": gamma, "points": len(rows)}
    return {"limit": limit, "gamma": gamma}, result, rows, rows, True


def main():
    # no command calls BLAS: spare numpy's import its idle OpenBLAS workers, unless the user chose a count
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        cli()
    finally:
        # everything made so far lives until exit: spare the collections at shutdown from traversing it
        gc.freeze()


if __name__ == "__main__":
    main()
