"""Command-line front end.

Subcommands: sieve, tau-sum, f, error, verify-lemmas, residues, bv-sum.
Exit codes: 0 success, 2 refused input or an unreadable or unwritable
file (message on stderr, nothing on stdout), 3 exact-identity failure.

Import rule: at the top this module imports only what parsing the
command line needs (the standard library and ``errors``).  Each
``_cmd_*`` imports the layers it runs when it runs, so ``rfree --help``,
a refused option, ``rfree residues`` and ``rfree tau-sum`` start without
numpy, and a command pays only for its own modules.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from .errors import ConfigError, ResourceLimitError, SelfCheckError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENTITY = 3

_LEMMA_BATCH = 4096  # verify-lemmas trials per decompose_many call
_RESIDUES_BATCH = 1024  # residues rows per write


def _parse_int(text: str) -> int:
    """An exact 64-bit integer, written plainly or in float notation (1e7, 1.5e6)."""
    from decimal import Decimal, InvalidOperation  # not on the --help path

    try:
        value = Decimal(text.strip())
        if value.copy_abs() < 2**63 and value == value.to_integral_value():
            return int(value)
    except InvalidOperation:
        pass
    raise ValueError(f"{text!r} is not an exact 64-bit integer")


def _int_option(text: str) -> int:
    """``_parse_int`` as an argparse type: a refusal names the option and
    the rule, not this function."""
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_z(text: str) -> float:
    """The cut of ``decompose``: a finite number >= 1, checked for every class."""
    try:
        z = float(text)
    except ValueError:
        z = math.nan  # not a number: refused by the same rule
    if not (math.isfinite(z) and z >= 1):
        raise argparse.ArgumentTypeError(f"z must be a finite number >= 1, got {text!r}")
    return z


def _parse_int_list(text: str) -> list[int]:
    return [_parse_int(part) for part in text.split(",") if part.strip()]


def _cmd_sieve(args) -> int:
    import time

    from .sieve import _check_flag_total, _packed_size, r_free_counts, save_cache

    rs = sorted(set(_parse_int_list(args.r)))
    # refused before the cache path is opened
    if not rs:
        raise ConfigError("--r must name at least one r value")
    if args.limit < 1:
        raise ConfigError(f"limit must be >= 1, got {args.limit}")
    start = time.perf_counter()
    if args.cache:  # save_cache checks each total and refuses to overwrite a non-RFSV file
        totals, source = save_cache(args.cache, args.limit, rs), "built and saved"
    else:
        totals, source = [r_free_counts([args.limit], r)[0] for r in rs], "built"
        for r, total in zip(rs, totals):
            _check_flag_total(args.limit, r, total)
    elapsed = time.perf_counter() - start
    for r, total in zip(rs, totals):
        print(f"r={r}: {total} r-free integers <= {args.limit}")
    print(
        f"{source} in {elapsed:.3f}s (limit {args.limit}, rs {tuple(rs)}, "
        f"{len(rs) * _packed_size(args.limit)} flag bytes)"
    )
    return EXIT_OK


def _cmd_tau_sum(args) -> int:
    from .multiplicative import tau_partial_sum_check

    rows = tau_partial_sum_check(args.r, _parse_int_list(args.x))
    print("x,sum,ratio")
    for row in rows:
        print(f"{row.x},{row.total},{row.ratio!r}")
    return EXIT_OK


def _cmd_f(args) -> int:
    from .multiplicative import f_value

    fv = f_value(args.r, args.k)
    print(f"{fv.value:.12f}")
    return EXIT_OK


def _cmd_error(args) -> int:
    import json

    from .progressions import _error_report

    if args.x < 1:
        raise ConfigError(f"x must be >= 1, got {args.x}")
    # without --z the split at z = 1 still checks R, and prints nothing
    rep, dec = _error_report(args.x, args.r, args.k, args.l, args.z or 1.0)
    payload = {
        "x": rep.x, "r": rep.r, "k": rep.k, "l": rep.l,
        "g": rep.g, "s": rep.s, "t": rep.t,
        "g_is_r_free": rep.g_is_r_free,
        "R": rep.count, "main_term": rep.main_term,
        "error_term": rep.error_term,
    }
    if args.z is not None and dec is not None:  # _error_report raises unless it is exact
        payload.update(z=dec.z, small_sum=dec.small_sum, large_sum=dec.large_sum, split_exact=True)
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(",".join(payload.keys()))
        print(",".join(_csv_cell(v) for v in payload.values()))
    return EXIT_OK


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _lemma_trials(seed: int, x: int, r: int, n: int):
    """The n random (k, l, z) of verify-lemmas, each with gcd(l, k) r-free."""
    import random

    from .arith import is_r_free

    rng = random.Random(seed)
    for _ in range(n):
        while True:
            k = rng.randint(1, min(200, x))
            l = rng.randrange(k)
            g = math.gcd(l, k)  # gcd(0, k) = k
            if is_r_free(g, r):
                break
        yield k, l, rng.uniform(1.0, max(1.0, (x / g) ** (1.0 / r)))


def _cmd_verify_lemmas(args) -> int:
    import itertools

    from .progressions import decompose_many, lemma_bound_probe

    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    if args.x < 1:
        raise ConfigError(f"x must be >= 1, got {args.x}")
    trials = _lemma_trials(args.seed, args.x, args.r, args.trials)
    worst_small = worst_large = 0.0
    # a few thousand trials per call keep the reports' memory flat in --trials
    while batch := list(itertools.islice(trials, _LEMMA_BATCH)):
        for rep in decompose_many(args.x, args.r, batch):
            probe = lemma_bound_probe(rep)
            worst_small = max(worst_small, probe.small_residual)
            worst_large = max(worst_large, probe.large_ratio)
    print(  # failures=0 keeps the format: decompose_many raises on a failed split
        f"trials={args.trials} failures=0 "
        f"max_small_residual={worst_small!r} max_large_ratio={worst_large!r}"
    )
    return EXIT_OK


class _Reprs(dict):
    """The repr of each key, made on its first lookup."""

    def __missing__(self, key):
        text = self[key] = repr(key)
        return text


def _cmd_residues(args) -> int:
    import itertools
    from operator import attrgetter

    from .residues import per_modulus_maxima

    rows = per_modulus_maxima(args.r, args.s_max)
    best = next(rows)  # refuses bad input before the header
    print("s,a,count,ratio")
    rows = itertools.chain([best], rows)
    texts = _Reprs()  # a row has few distinct ratios, and repr is most of its cost
    # one write per batch of rows: memory stays flat in --s-max
    while batch := list(itertools.islice(rows, _RESIDUES_BATCH)):
        sys.stdout.write("".join(f"{s},{a},{count},{texts[ratio]}\n" for s, a, count, ratio in batch))
        top = max(batch, key=attrgetter("ratio"))  # the first maximum: the smallest s
        if top.ratio > best.ratio:
            best = top
    print(f"# max ratio {best.ratio!r} at a={best.a} s={best.s} (r={args.r})")
    return EXIT_OK


def _cmd_bv_sum(args) -> int:
    from pathlib import Path

    from .harness import ExperimentConfig, rows_to_csv, run_experiment, write_plot

    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    xs = _parse_int_list(args.x)
    config = ExperimentConfig(
        r=args.r, log_power=args.A, xs=tuple(xs), timing=args.timing
    )
    rows = run_experiment(config)
    if args.plot:  # before any stdout, so an unwritable path leaves none
        write_plot(rows, args.plot)
    if args.csv:
        Path(args.csv).write_text(rows_to_csv(rows))
    else:
        sys.stdout.write(rows_to_csv(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfree",
        description="r-free numbers in arithmetic progressions: exact counts, "
        "error terms, and averaged-error experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="count the r-free integers up to --limit")
    p.add_argument("--limit", type=_int_option, required=True)
    p.add_argument("--r", required=True, help="comma-separated r values")
    p.add_argument("--cache", default=None,
                   help="also write the packed flags to this RFSV2 file, replacing "
                   "any sieve cache there; the file is written, never read")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("tau-sum", help="partial sums of tau_r as CSV")
    p.add_argument("--r", type=_int_option, required=True)
    p.add_argument("--x", required=True, help="comma-separated x values")
    p.set_defaults(func=_cmd_tau_sum)

    p = sub.add_parser("f", help="print f_r(k) to 12 decimals")
    p.add_argument("--r", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.set_defaults(func=_cmd_f)

    p = sub.add_parser("error", help="one progression report (CSV or JSON)")
    p.add_argument("--x", type=_int_option, required=True)
    p.add_argument("--r", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--l", type=_int_option, required=True)
    p.add_argument("--z", type=_parse_z, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache", default=None,
                   help="kept for compatibility; has no effect (no file is read or written)")
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser(
        "verify-lemmas", help="randomized split-identity and bound sweeps"
    )
    p.add_argument("--x", type=_int_option, required=True)
    p.add_argument("--r", type=_int_option, required=True)
    p.add_argument("--trials", type=_int_option, default=100)
    p.add_argument("--seed", type=_int_option, default=0)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("residues", help="power-residue count maxima as CSV")
    p.add_argument("--r", type=_int_option, required=True)
    p.add_argument("--s-max", dest="s_max", type=_int_option, required=True)
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("bv-sum", help="averaged worst-case error experiment")
    p.add_argument("--r", type=_int_option, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--x", required=True, help="comma-separated x values")
    p.add_argument("--threads", type=_int_option, default=1,
                   help="kept for compatibility; has no effect (must be >= 1)")
    p.add_argument("--csv", default=None)
    p.add_argument("--plot", default=None)
    p.add_argument("--cache", default=None,
                   help="kept for compatibility; has no effect (no file is read or written)")
    p.add_argument("--timing", choices=("wall", "none"), default="wall")
    p.set_defaults(func=_cmd_bv_sum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SelfCheckError as exc:
        print(f"exact-identity self-check failed: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (ValueError, ResourceLimitError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    """The process entry of ``python -m rfree.cli`` and the ``rfree`` script.

    No command makes reference cycles (tests/test_startup.py), so the
    cyclic collector only costs time in a process that ends with the
    command: it is off while numpy loads and the command runs, and every
    object left is frozen, so the collection at interpreter shutdown scans
    none of them.  ``main`` leaves the collector alone for in-process
    callers.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
