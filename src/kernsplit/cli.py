"""Command-line surface.

Four commands cover the library: ``radical`` (factor one value),
``decompose`` (constructive split, optionally verified), ``count``
(class counters), ``scan`` (range verification, oracle comparison, or
representability probe), plus ``logratio`` for the exploratory
weighted-count ratio table.

Output defaults to human-readable key=value lines; ``--json`` emits one
JSON object per line (per-row objects first where a command produces
rows, then a single envelope with command, params, result and
elapsed_ms); ``--csv`` emits a header row then data rows.  Exit status
is 0 exactly when the command succeeded and, where verification was
requested or implied, verification passed.
"""

import csv
import io
import json
import math
import os
import sys
import time

import click

from . import decompose as dec
from . import oracle as orc
from . import powered as pwd
from .kernel import factorize, radical_sieve

SEGMENT_ENV_VAR = "KERNSPLIT_SEGMENT_SIZE"

# scans implying more lookups than this refuse to run without --force
FORCE_LOOKUP_LIMIT = 10**9


def _segment_kwargs() -> dict:
    raw = os.environ.get(SEGMENT_ENV_VAR)
    if raw is None:
        return {}
    try:
        seg = int(raw)
    except ValueError:
        raise click.UsageError(f"{SEGMENT_ENV_VAR} must be an integer, got {raw!r}")
    return {"segment_size": seg}


def _sieve(x: int):
    return radical_sieve(x, **_segment_kwargs())


def _echo_json(obj: dict) -> None:
    click.echo(json.dumps(obj))


def _echo_csv(rows: list[dict]) -> None:
    if not rows:
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow("" if v is None else v for v in row.values())
    click.echo(buf.getvalue(), nl=False)


def _kv_line(rec: dict) -> str:
    return " ".join(f"{k}={_human(v)}" for k, v in rec.items())


def _human(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _emit(
    fmt: str,
    command: str,
    params: dict,
    result: dict,
    rows: list[dict],
    elapsed_ms: float,
    human_lines: list[str],
) -> None:
    if fmt == "json":
        for row in rows:
            _echo_json(row)
        _echo_json(
            {
                "command": command,
                "params": params,
                "result": result,
                "elapsed_ms": round(elapsed_ms, 3),
            }
        )
    elif fmt == "csv":
        _echo_csv(rows if rows else [result])
    else:
        for line in human_lines:
            click.echo(line)


def _fmt_from_flags(as_json: bool, as_csv: bool) -> str:
    if as_json and as_csv:
        raise click.UsageError("--json and --csv are mutually exclusive")
    return "json" if as_json else "csv" if as_csv else "human"


def _output_options(fn):
    fn = click.option("--json", "as_json", is_flag=True, help="One JSON object per line.")(fn)
    fn = click.option("--csv", "as_csv", is_flag=True, help="Header row then data rows.")(fn)
    return fn


@click.group()
@click.version_option(package_name="kernsplit")
def cli():
    """Kernel arithmetic and certified two-part decompositions."""


@cli.command("radical")
@click.argument("m", type=int)
@_output_options
def cmd_radical(m: int, as_json: bool, as_csv: bool):
    """Print k(M) and the factorization of M."""
    fmt = _fmt_from_flags(as_json, as_csv)
    t0 = time.perf_counter()
    try:
        fac = factorize(m)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    elapsed = (time.perf_counter() - t0) * 1000
    factor_text = "*".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in fac.factors
    ) or "1"
    result = {
        "m": m,
        "radical": fac.radical(),
        "factors": [[p, e] for p, e in fac.factors],
    }
    human = [f"m={m} radical={fac.radical()} factorization={factor_text}"]
    csv_result = {"m": m, "radical": fac.radical(), "factorization": factor_text}
    _emit(fmt, "radical", {"m": m}, result, [csv_result] if fmt == "csv" else [], elapsed, human)


@cli.command("decompose")
@click.argument("n", type=int)
@click.option(
    "--verify",
    "verify_mode",
    type=click.Choice(["structural", "exact"]),
    default=None,
    help="Check the result; structural falls back to exact for n in {4,5,6}.",
)
@_output_options
def cmd_decompose(n: int, verify_mode: str | None, as_json: bool, as_csv: bool):
    """Split N into m1 + m2 with k(m)**4 <= 432 m**2 for both parts."""
    fmt = _fmt_from_flags(as_json, as_csv)
    t0 = time.perf_counter()
    try:
        d = dec.split(n)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    verified: bool | None = None
    if verify_mode == "structural" and d.witness is not None:
        verified = bool(dec.verify_structural(d))
    elif verify_mode is not None:
        verified = dec.verify_exact(d)
    elapsed = (time.perf_counter() - t0) * 1000
    result = d.to_record() | {"verified": verified}
    human = [_kv_line(result)]
    params = {"n": n, "verify": verify_mode}
    _emit(fmt, "decompose", params, result, [result] if fmt == "csv" else [], elapsed, human)
    if verify_mode is not None and not verified:
        sys.exit(1)


@cli.command("count")
@click.option("--theta", "theta_text", default=None, help="Exact exponent as p/q, e.g. 1/2.")
@click.option("--gamma", "gamma", type=float, default=None, help="Log-weight exponent.")
@click.option("--limit", "limit", type=int, required=True, help="Count members up to this x.")
@_output_options
def cmd_count(theta_text: str | None, gamma: float | None, limit: int, as_json: bool, as_csv: bool):
    """Count members up to --limit for one exponent parameter."""
    fmt = _fmt_from_flags(as_json, as_csv)
    if (theta_text is None) == (gamma is None):
        raise click.UsageError("exactly one of --theta / --gamma is required")
    t0 = time.perf_counter()
    try:
        if theta_text is not None:
            theta = pwd.Theta.parse(theta_text)
            report = pwd.count_members(limit, theta, table=_sieve(limit))
            params = {"theta": str(theta), "limit": limit}
        else:
            report = pwd.count_log_weighted(limit, gamma, table=_sieve(limit))
            params = {"gamma": gamma, "limit": limit}
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    elapsed = (time.perf_counter() - t0) * 1000
    result = report.to_record()
    human = [_kv_line(result)]
    _emit(fmt, "count", params, result, [result] if fmt == "csv" else [], elapsed, human)


def _estimated_lookups(n_lo: int, n_hi: int, mode: str) -> int:
    if mode == "verify":
        return 0  # structural checks never touch the table
    # one sieve of n_hi plus ~n/2 lookups per n
    return n_hi + (n_hi * (n_hi + 1) - (n_lo - 1) * n_lo) // 4


@cli.command("scan")
@click.option("--from", "n_lo", type=int, required=True, help="First n, inclusive (>= 4).")
@click.option("--to", "n_hi", type=int, required=True, help="Last n, inclusive.")
@click.option("--gamma", "gamma", type=float, default=None, help="Probe log-weighted representability instead.")
@click.option("--oracle", "use_oracle", is_flag=True, help="Compare against the exhaustive optimum.")
@click.option("--force", "force", is_flag=True, help="Accept scans implying > 1e9 kernel lookups.")
@_output_options
def cmd_scan(
    n_lo: int,
    n_hi: int,
    gamma: float | None,
    use_oracle: bool,
    force: bool,
    as_json: bool,
    as_csv: bool,
):
    """Verify split(n) over a range; --oracle and --gamma switch modes."""
    fmt = _fmt_from_flags(as_json, as_csv)
    if use_oracle and gamma is not None:
        raise click.UsageError("--oracle and --gamma are mutually exclusive")
    mode = "oracle" if use_oracle else "probe" if gamma is not None else "verify"
    est = _estimated_lookups(n_lo, n_hi, mode)
    if est > FORCE_LOOKUP_LIMIT and not force:
        click.echo(
            f"error: scan implies ~{est:.2e} kernel lookups (> {FORCE_LOOKUP_LIMIT:.0e}); "
            "rerun with --force to proceed",
            err=True,
        )
        sys.exit(1)
    params = {"from": n_lo, "to": n_hi, "mode": mode}
    if gamma is not None:
        params["gamma"] = gamma
    t0 = time.perf_counter()
    try:
        if mode == "verify":
            report = dec.verify_range(n_lo, n_hi)
            rows = report.to_rows()
            result = report.summary_record()
            ok = not report.violations
        elif mode == "oracle":
            table = _sieve(n_hi)
            report = orc.constructive_vs_oracle(n_lo, n_hi, table=table, allow_large=force)
            rows = report.to_rows()
            result = report.summary_record()
            ok = not report.violations
        else:
            table = _sieve(max(n_hi - 2, 2))
            report = orc.conjecture_probe(n_lo, n_hi, gamma, table=table, allow_large=force)
            rows = report.to_rows()
            result = report.summary_record()
            ok = True  # failing n are data, not verification failures
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    elapsed = (time.perf_counter() - t0) * 1000
    if mode == "verify":
        human = [_kv_line(row) for row in rows]  # violations only
    elif mode == "oracle":
        human = [_kv_line(row) for row in rows]
    else:
        human = [_kv_line(row) for row in rows if not row["ok"]]
    human.append(_kv_line(result))
    _emit(fmt, "scan", params, result, rows, elapsed, human)
    if not ok:
        sys.exit(1)


@cli.command("logratio")
@click.option("--limit", "limit", type=int, required=True, help="Largest x in the table.")
@click.option("--gamma", "gamma", type=float, default=1.0, show_default=True, help="Weight exponent.")
@click.option("--points", "points", type=int, default=5, show_default=True, help="Geometric grid size.")
@_output_options
def cmd_logratio(limit: int, gamma: float, points: int, as_json: bool, as_csv: bool):
    """Exploratory table: weighted count over (ln x)**gamma * sqrt-class count.

    Reports N_gamma(x) / ((ln x)**gamma * S(x)) on a geometric grid,
    where N_gamma counts k(m)**2 <= m ln(m)**(2 gamma) and S counts the
    theta = 1/2 class.  No pass/fail judgment is attached; at feasible x
    the ratio drifts slowly and is not expected to settle.
    """
    fmt = _fmt_from_flags(as_json, as_csv)
    if limit < 10:
        raise click.UsageError("--limit must be at least 10")
    if points < 1:
        raise click.UsageError("--points must be at least 1")
    t0 = time.perf_counter()
    xs = sorted({max(10, round(limit ** (i / points))) for i in range(1, points + 1)} | {limit})
    rows = []
    half = pwd.Theta(1, 2)
    try:
        table = _sieve(limit)
        for x in xs:
            weighted = pwd.count_log_weighted(x, gamma, table=table)
            plain = pwd.count_members(x, half, table=table)
            denom = math.log(x) ** gamma * plain.count
            rows.append(
                {
                    "x": x,
                    "weighted_count": weighted.count,
                    "half_count": plain.count,
                    "ratio": weighted.count / denom,
                }
            )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    elapsed = (time.perf_counter() - t0) * 1000
    result = {"limit": limit, "gamma": gamma, "points": len(rows)}
    human = [_kv_line(r) for r in rows]
    _emit(fmt, "logratio", {"limit": limit, "gamma": gamma}, result, rows, elapsed, human)


def main():
    cli()


if __name__ == "__main__":
    main()
