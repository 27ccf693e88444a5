"""Command-line frontend: expansion, verification and oracle censuses.

Output goes to stdout in a fixed grammar (see the polynomial rendering in
``poly``) so that runs with identical inputs are byte-identical.  Exit codes
mean one thing each: 0 when every requested check verifies, 1 on a
mismatch, 2 on invalid arguments (argparse's convention; checked before
anything runs), 3 on any other error, named in one line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import identities, oracle
from .hermite import HermiteKind, hermite, hermite_egf
from .series import TruncSeries

DEFAULT_ORDER = 12

# The largest --n each brute-force census supports: (noun, name of n, bound).
ORACLE_BOUNDS = {
    "matchings": ("matching", "m", oracle.MATCHING_BOUND),
    "wtrees": ("w-tree", "n", oracle.W_TREE_BOUND),
    "graphs": ("marked-graph", "n", oracle.MARKED_GRAPH_BOUND),
}


SERIES_BUILDERS = {
    "w": identities.w_series,
    "tree-gf": identities.tree_gf,
    "one-cycle": identities.one_cycle_factor,
    "multi-cycle": identities.multi_cycle_factor,
    "lhs-doetsch": lambda order: identities.lhs_lacunary(2, order),
    "rhs-doetsch": identities.rhs_doetsch,
    "lhs-main": lambda order: identities.lhs_lacunary(3, order),
    "rhs-main": identities.rhs_main,
    "hermite-h-egf": lambda order: hermite_egf(HermiteKind.PROBABILIST, order),
    "hermite-H-egf": lambda order: hermite_egf(HermiteKind.PHYSICIST, order),
}


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="Exact verification of Hermite-polynomial generating-function identities.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_hermite = sub.add_parser("hermite", help="print one Hermite polynomial")
    p_hermite.add_argument("--kind", choices=("h", "H"), required=True)
    p_hermite.add_argument("--n", type=_nonnegative, required=True)

    p_expand = sub.add_parser("expand", help="print the coefficients of a named series")
    p_expand.add_argument("series", choices=sorted(SERIES_BUILDERS))
    p_expand.add_argument("--order", type=_nonnegative, default=DEFAULT_ORDER)

    p_verify = sub.add_parser("verify", help="verify a named identity exactly")
    p_verify.add_argument("identity", choices=identities.identity_names())
    p_verify.add_argument("--order", type=_nonnegative, default=DEFAULT_ORDER)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration censuses")
    p_oracle.add_argument("target", choices=("matchings", "wtrees", "graphs"))
    p_oracle.add_argument("--n", type=_nonnegative, required=True)

    return parser


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    try:
        if fmt == "json":
            import json

            print(json.dumps(payload, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left; the result is computed, so the exit code stands.
        # Point fd 1 at devnull so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _series_payload(name: str, series: TruncSeries) -> tuple[dict, list[str]]:
    coefficients = {}
    lines = []
    for exps in sorted(
        ({e for e, _ in series.items()} | {(0,) * len(series.vars)}),
        key=lambda t: (sum(t), t),
    ):
        key = "*".join(f"{v}^{k}" for v, k in zip(series.vars, exps))
        value = str(series.coefficient(exps))
        coefficients[key] = value
        lines.append(f"{key}: {value}")
    payload = {"series": name, "order": series.order, "coefficients": coefficients}
    return payload, lines


def cmd_hermite(fmt: str, kind: str, n: int) -> int:
    poly = hermite(HermiteKind(kind), n)
    payload = {"kind": kind, "n": n, "polynomial": str(poly)}
    _emit(payload, [str(poly)], fmt)
    return 0


def cmd_expand(fmt: str, name: str, order: int) -> int:
    series = SERIES_BUILDERS[name](order)
    payload, lines = _series_payload(name, series)
    _emit(payload, lines, fmt)
    return 0


def cmd_verify(fmt: str, identity: str, order: int) -> int:
    report = identities.verify(identity, order)
    lines = [f"{identity} @ order {order}: {report.status}"]
    if report.mismatch is not None:
        m = report.mismatch
        lines.append(f"  first mismatch at exponents {list(m.exponents)}")
        lines.append(f"  lhs: {m.lhs}")
        lines.append(f"  rhs: {m.rhs}")
    _emit(report.to_dict(), lines, fmt)
    return 0 if report.verified else 1


def cmd_oracle(fmt: str, target: str, n: int) -> int:
    if target == "matchings":
        census = oracle.enumerate_matchings(n)
        _emit({"target": target, "n": n, "census": str(census)}, [str(census)], fmt)
        return 0
    if target == "wtrees":
        count = oracle.enumerate_w_trees(n)
        formula = 3**n * math.factorial(n) * identities.catalan_number(n)
        payload = {"target": target, "n": n, "count": count, "formula": formula}
        _emit(payload, [str(count)], fmt)
        return 0 if count == formula else 1
    census = oracle.enumerate_marked_graphs(n)
    check = oracle.factor_census_check(n)
    payload = {
        "target": target,
        "n": n,
        "census": census.to_dict(),
        "check": "pass" if check.passed else "fail",
    }
    lines = [f"{profile}: {poly}" for profile, poly in census.to_dict().items()]
    lines.append(f"factor census check (n <= {n}): {'pass' if check.passed else 'fail'}")
    if not check.passed:
        payload["mismatches"] = [e for e in check.to_dict()["entries"] if not e["matched"]]
        for e in payload["mismatches"]:
            lines.append(
                f"  n={e['n']} {e['factor']}: census {e['census']} != series {e['series']}"
            )
    _emit(payload, lines, fmt)
    return 0 if check.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "oracle":
        noun, name, bound = ORACLE_BOUNDS[args.target]
        if args.n > bound:
            parser.error(f"{noun} enumeration supports 0 <= {name} <= {bound}, got {args.n}")
    # Coefficients of any size print: lift Python's int-to-str digit limit
    # (3.10.7 and later; 0 means none) while the command runs.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.subcommand == "hermite":
            return cmd_hermite(args.format, args.kind, args.n)
        if args.subcommand == "expand":
            return cmd_expand(args.format, args.series, args.order)
        if args.subcommand == "verify":
            return cmd_verify(args.format, args.identity, args.order)
        return cmd_oracle(args.format, args.target, args.n)
    except Exception as exc:
        print(f"lacunary: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
