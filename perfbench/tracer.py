"""Run one ``lacunary`` CLI job with spans or counters wrapped around its modules.

Usage (the benchmark starts this as a cold job process):

    python3 perfbench/tracer.py time|count OUT.json -- <lacunary arguments>

The job's stdout and exit code are exactly those of ``lacunary <arguments>``;
what was measured goes to OUT.json.  Nothing in ``src/`` is edited: the
public functions are replaced, for this process only, by wrappers installed
in every namespace that looks them up at call time (module globals, the
``IDENTITIES`` and ``SERIES_BUILDERS`` tables, class attributes).  The
recursive Hermite recurrences are wrapped only where other modules call
them, so their recursion depth is unchanged.

``time`` mode records one span per wrapped call and writes self times.  Two
kinds of span exist:

* a *stage* span is a named step of a layer (``identities.w``,
  ``umbral.eval``, ``oracle.w_trees``, ...).  Its stage self time is its
  duration minus the stages nested in it, so it includes the series kernels
  it called.  Stage self times partition the job.
* a *kernel* span is a ``TruncSeries`` operation or polynomial rendering.
  Its self time is its duration minus every span nested in it.

``count`` mode records no times.  It counts polynomial and rational work
(wrapping ``UPolynomial`` arithmetic costs far more than it measures, so it
never runs in the timed pass) and hashes the exact coefficients of every
series the identity builders return and of both sides of every comparison
(which covers the umbral evaluations).

Series are read only through ``vars``, ``order`` and ``coefficient()``, the
calls the CLI prints a series with, and coefficients only through their
printed text.  The digests and counts therefore do not depend on how a
series or a polynomial stores its terms.  A function or method named in
the tables below that no longer exists is not wrapped, and its span's
metrics read 0.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from time import perf_counter

STAGE, KERNEL = "stage", "kernel"

# (module attribute, span name); the name's prefix is the layer.
IDENTITY_STAGES = (
    ("w_series", "identities.w"),
    ("w_explicit", "identities.w"),
    ("w_fixed_point", "identities.w_fixed_point"),
    ("w_closed_form", "identities.w_closed_form"),
    ("tree_gf", "identities.tree_gf"),
    ("tree_gf_product_route", "identities.tree_gf"),
    ("tree_gf_integral_route", "identities.tree_gf_integral"),
    ("tree_gf_explicit_route", "identities.tree_gf_explicit"),
    ("one_cycle_factor", "identities.one_cycle"),
    ("one_cycle_inverse_sqrt_route", "identities.one_cycle"),
    ("one_cycle_exp_log_route", "identities.one_cycle_exp_log"),
    ("multi_cycle_factor", "identities.multi_cycle"),
    ("rhs_main", "identities.rhs_products"),
    ("lhs_lacunary", "identities.lhs"),
    ("rhs_doetsch", "identities.rhs_doetsch"),
    ("hypergeom_series_route", "identities.hypergeom_series"),
    ("hypergeom_form_check", "identities.checks"),
)
UMBRAL_STAGES = (
    ("exp_of_m_power", "umbral.exp_of_m_power"),
    ("umbral_eval", "umbral.eval"),
)
ORACLE_STAGES = (
    ("enumerate_marked_graphs", "oracle.marked_graphs"),
    ("enumerate_w_trees", "oracle.w_trees"),
    ("factor_census_check", "oracle.census_check"),
)
CLI_STAGES = (
    ("cmd_hermite", "cli.render"),
    ("cmd_expand", "cli.render"),
    ("cmd_verify", "cli.render"),
    ("cmd_oracle", "cli.render"),
)
SERIES_KERNELS = (
    ("__mul__", "series.mul"),
    ("__rmul__", "series.mul"),
    ("__add__", "series.add"),
    ("__radd__", "series.add"),
    ("__pow__", "series.pow"),
    ("inverse", "series.inverse"),
    ("sqrt", "series.sqrt"),
    ("exp", "series.exp"),
    ("log", "series.log"),
    ("div_z", "series.div_z"),
)
# exp(T) is a bare series call inside rhs_main; it is reported as a stage.
EXP_T_PARENT, EXP_T = "identities.rhs_products", "identities.exp_T"


class Recorder:
    """In-memory spans: [name, kind, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, kind: str):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, kind, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][4] = perf_counter()
                stack.pop()

        return traced

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def aggregate(self) -> dict:
        """Stage self times, kernel self times and call counts per span name."""
        child_all = [0.0] * len(self.spans)
        child_stage = [0.0] * len(self.spans)
        for name, kind, parent, start, end in self.spans:
            if parent < 0:
                continue
            child_all[parent] += end - start
            if kind == STAGE:
                p = parent
                while p >= 0 and self.spans[p][1] != STAGE:
                    p = self.spans[p][2]
                if p >= 0:
                    child_stage[p] += end - start
        stage_self: Counter = Counter()
        kernel_self: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, kind, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            if kind == STAGE:
                stage_self[name] += end - start - child_stage[i]
            else:
                kernel_self[name] += end - start - child_all[i]
        roots = [s for s in self.spans if s[2] < 0]
        return {
            "total_s": max(s[4] for s in roots) - min(s[3] for s in roots),
            "stage_self": dict(stage_self),
            "kernel_self": dict(kernel_self),
            "calls": dict(calls),
        }


class Patcher:
    """Replaces functions in the namespaces that look them up, one wrapper each."""

    def __init__(self, factory):
        self.factory = factory  # (original, span name) -> wrapper
        self.wrapped: dict[int, object] = {}

    def __call__(self, namespace, attr: str, name: str) -> None:
        original = getattr(namespace, attr, None)
        if original is None:
            return
        if id(original) not in self.wrapped:
            self.wrapped[id(original)] = self.factory(original, name)
        setattr(namespace, attr, self.wrapped[id(original)])

    def table(self, table: dict) -> None:
        """Point a lookup table's entries at the wrappers of what they hold."""
        for key, fn in table.items():
            if id(fn) in self.wrapped:
                table[key] = self.wrapped[id(fn)]


def install_spans(rec: Recorder, lac) -> None:
    """Wrap every layer boundary of the imported package ``lac`` in spans."""
    cli, identities, umbral, oracle = lac.cli, lac.identities, lac.umbral, lac.oracle
    stage = Patcher(lambda fn, name: rec.wrap(fn, name, STAGE))
    for module, table in (
        (identities, IDENTITY_STAGES),
        (umbral, UMBRAL_STAGES),
        (oracle, ORACLE_STAGES),
        (cli, CLI_STAGES),
    ):
        for attr, name in table:
            stage(module, attr, name)
    for module in (identities, umbral):
        stage(module, "compare_series", "report.compare")
    for module in (identities, oracle):
        stage(module, "hermite_h", "hermite.h")
    stage.table(cli.SERIES_BUILDERS)
    for key, fn in identities.IDENTITIES.items():
        layer = "umbral" if fn.__module__ == umbral.__name__ else "identities"
        identities.IDENTITIES[key] = rec.wrap(fn, f"{layer}.checks", STAGE)

    hermite_by_kind = {
        lac.HermiteKind.PROBABILIST: rec.wrap(cli.hermite, "hermite.h", STAGE),
        lac.HermiteKind.PHYSICIST: rec.wrap(cli.hermite, "hermite.H", STAGE),
    }
    cli.hermite = lambda kind, n: hermite_by_kind[kind](kind, n)

    mexpr_mul = rec.wrap(lac.MExpression.__mul__, "umbral.mexpr_mul", STAGE)
    lac.MExpression.__mul__ = lac.MExpression.__rmul__ = mexpr_mul

    series_cls = lac.TruncSeries
    kernel = Patcher(lambda fn, name: rec.wrap(fn, name, KERNEL))
    for attr, name in SERIES_KERNELS:
        kernel(series_cls, attr, name)
    exp_kernel = getattr(series_cls, "exp", None)
    if exp_kernel is not None:
        exp_t = rec.wrap(exp_kernel, EXP_T, STAGE)
        series_cls.exp = lambda s: (exp_t if rec.current() == EXP_T_PARENT else exp_kernel)(s)

    kernel(lac.UPolynomial, "__str__", "poly.str")


@lru_cache(maxsize=None)
def exponents_upto(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent tuple of total degree <= order, by degree, then lexicographically."""
    within = (e for e in product(range(order + 1), repeat=nvars) if sum(e) <= order)
    return tuple(sorted(within, key=lambda e: (sum(e), e)))


def coefficient_texts(series) -> dict[tuple[int, ...], str]:
    """The printed coefficient at every exponent up to the order, zeros included."""
    return {e: str(series.coefficient(e)) for e in exponents_upto(len(series.vars), series.order)}


def series_digest(series, texts: dict) -> str:
    """sha256 of a series' order and the printed text of every coefficient."""
    h = hashlib.sha256(str(series.order).encode())
    for exps, text in texts.items():
        h.update(f"|{exps}:{text}".encode())
    return h.hexdigest()


# The integers of a printed coefficient; the digits after ``^`` are exponents.
_INTEGER = re.compile(r"(?<![\^\d])\d+")


def _max_bits(texts) -> int:
    return max((int(n).bit_length() for t in texts for n in _INTEGER.findall(t)), default=0)


def _nonzero_degrees(series) -> Counter:
    """Nonzero coefficients per total degree.

    Read from ``items()``, where the CLI and ``compare_series`` find a
    series' terms.  If that yields no exponent tuples, every exponent up to
    the order is probed through ``coefficient()`` instead: the same counts,
    but slow.
    """
    try:
        return Counter(sum(e) for e, p in series.items() if p)
    except (AttributeError, TypeError):
        exps = exponents_upto(len(series.vars), series.order)
        return Counter(sum(e) for e in exps if series.coefficient(e))


class Counters:
    """Exact work counts and result digests for one job."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.digests: dict[str, str] = {}

    def record_series(self, key: str, series) -> dict:
        texts = coefficient_texts(series)
        self.digests[key] = series_digest(series, texts)
        self.max_bits = max(self.max_bits, _max_bits(texts.values()))
        return texts

    def to_dict(self) -> dict:
        counts = dict(self.counts)
        counts["rational.max_bits"] = self.max_bits
        return {"counts": counts, "digests": self.digests}


def install_counters(ctr: Counters, lac) -> None:
    """Count polynomial, series, report and oracle work; hash built series."""
    cli, identities, umbral, oracle = lac.cli, lac.identities, lac.umbral, lac.oracle
    counts = ctr.counts

    poly_cls = lac.UPolynomial
    poly_mul, poly_add = poly_cls.__mul__, poly_cls.__add__

    def counted_poly_mul(a, b):
        counts["poly.mul_n"] += 1
        counts["rational.mul_n"] += len(a) * (len(b) if isinstance(b, poly_cls) else 1)
        return poly_mul(a, b)

    def counted_poly_add(a, b):
        counts["poly.add_n"] += 1
        return poly_add(a, b)

    poly_cls.__mul__ = poly_cls.__rmul__ = counted_poly_mul
    poly_cls.__add__ = poly_cls.__radd__ = counted_poly_add

    series_cls = lac.TruncSeries
    series_mul = series_cls.__mul__

    def counted_series_mul(a, b):
        result = series_mul(a, b)
        if result is not NotImplemented:
            ha = _nonzero_degrees(a)
            hb = _nonzero_degrees(b) if isinstance(b, series_cls) else Counter({0: 1})
            counts["series.mul_pairs_n"] += sum(ha.values()) * sum(hb.values())
            counts["series.mul_kept_n"] += sum(
                ca * cb
                for da, ca in ha.items()
                for db, cb in hb.items()
                if da + db <= result.order
            )
        return result

    series_cls.__mul__ = series_cls.__rmul__ = counted_series_mul

    def digested(fn, label):
        def run(*args):
            result = fn(*args)
            key = f"{label}{args}"
            # repeated calls hit the builders' caches; reports are not series
            if key not in ctr.digests and isinstance(result, series_cls):
                ctr.record_series(key, result)
            return result

        return run

    builder = Patcher(digested)
    for attr, _ in IDENTITY_STAGES:
        builder(identities, attr, attr)
    builder.table(cli.SERIES_BUILDERS)

    compare = identities.compare_series
    compared: Counter = Counter()

    def counted_compare(identity, order, lhs, rhs):
        key = f"compare({identity!r}, {order})"
        n = compared[key]
        compared[key] += 1
        left = ctr.record_series(f"{key}#{n}.lhs", lhs)
        right = ctr.record_series(f"{key}#{n}.rhs", rhs)
        # the exponents where either side is nonzero, as compare_series walks them
        counts["report.coeffs_compared_n"] += sum(
            left[e] != "0" or right.get(e, "0") != "0" for e in left
        )
        return compare(identity, order, lhs, rhs)

    identities.compare_series = umbral.compare_series = counted_compare

    marked_graphs, w_trees = oracle.enumerate_marked_graphs, oracle.enumerate_w_trees
    enumerated: set[int] = set()

    def counted_marked_graphs(n):
        census = marked_graphs(n)
        if n not in enumerated:  # the enumeration is cached per n
            enumerated.add(n)
            total = census.total()
            degrees = range(total.total_degree() + 1)
            counts["oracle.involutions_n"] += int(sum(total.coefficient(i, j) for i in degrees for j in degrees))
        return census

    def counted_w_trees(n):
        count = w_trees(n)
        counts["oracle.w_trees_n"] += count
        return count

    oracle.enumerate_marked_graphs = counted_marked_graphs
    oracle.enumerate_w_trees = counted_w_trees


def _import_cli():
    import lacunary.cli

    return lacunary


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("time", "count") or argv[2] != "--":
        print("usage: tracer.py time|count OUT.json -- <lacunary arguments>", file=sys.stderr)
        return 2
    mode, out_path, cli_args = argv[0], argv[1], argv[3:]
    rec = Recorder()
    lac = rec.wrap(_import_cli, "cli.import", STAGE)()
    ctr = Counters()
    if mode == "time":
        install_spans(rec, lac)
    else:
        install_counters(ctr, lac)
    try:
        return rec.wrap(lac.cli.main, "cli.main", STAGE)(cli_args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(rec.aggregate() if mode == "time" else ctr.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
