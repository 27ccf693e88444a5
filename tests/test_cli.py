"""CLI surface: output grammar, JSON stability, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from lacunary import cli, oracle, umbral
from lacunary.poly import UPolynomial
from lacunary.report import IdentityReport, Mismatch
from lacunary.series import TruncSeries

from helpers import child_env


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_hermite_h(capsys):
    code, out = run_cli(capsys, "hermite", "--kind", "h", "--n", "3")
    assert code == 0
    assert out == "u^3 + 3*u\n"


def test_hermite_big_h(capsys):
    code, out = run_cli(capsys, "hermite", "--kind", "H", "--n", "2")
    assert code == 0
    assert out == "4*u^2 - 2\n"


def test_hermite_zero(capsys):
    code, out = run_cli(capsys, "hermite", "--kind", "h", "--n", "0")
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize(
    "kind, leading", [("h", "u^500 + "), ("H", f"{2**500}*u^500 - ")], ids=("h", "H")
)
def test_hermite_high_degree(capsys, kind, leading):
    code, out = run_cli(capsys, "hermite", "--kind", kind, "--n", "500")
    assert code == 0
    assert out.startswith(leading)


def test_hermite_prints_coefficients_beyond_the_digit_limit(capsys, monkeypatch):
    # H_2700 has such a coefficient but takes half a minute to build.
    monkeypatch.setattr(cli, "hermite", lambda kind, n: UPolynomial.u(coeff=10**4300))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        code, out = run_cli(capsys, "hermite", "--kind", "H", "--n", "2700")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert out == "1" + "0" * 4300 + "*u\n"


def test_hermite_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "hermite", "--kind", "h", "--n", "3")
    assert code == 0
    assert json.loads(out) == {"kind": "h", "n": 3, "polynomial": "u^3 + 3*u"}


def test_verify_json_schema(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "main", "--order", "4")
    assert code == 0
    assert json.loads(out) == {
        "identity": "main",
        "order": 4,
        "status": "verified",
        "mismatch": None,
    }


def test_verify_text(capsys):
    code, out = run_cli(capsys, "verify", "doetsch", "--order", "0")
    assert code == 0
    assert out == "doetsch @ order 0: verified\n"


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    fake = IdentityReport(
        "doetsch", 2, Mismatch((1,), UPolynomial.u(), UPolynomial.u(coeff=2))
    )
    monkeypatch.setattr(cli.identities, "verify", lambda name, order: fake)
    code, out = run_cli(capsys, "--format", "json", "verify", "doetsch", "--order", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    assert payload["mismatch"] == {"exponents": [1], "lhs": "u", "rhs": "2*u"}


# (builder perturbed at z^3, identity it feeds, first exponent that mismatches)
FACTOR_MUTANTS = [
    ("w_series", "w-routes", 3),
    ("tree_gf", "tree-gf-routes", 3),
    ("one_cycle_factor", "one-cycle-routes", 3),
    ("tree_gf", "main", 3),
    ("one_cycle_factor", "main", 3),
    ("multi_cycle_factor", "main", 3),
    ("lhs_lacunary", "main", 3),
    ("w_series", "main", 4),  # w enters the factors multiplied by z
    ("lhs_lacunary", "doetsch", 3),
    ("rhs_doetsch", "doetsch", 3),
]


@pytest.mark.parametrize(
    "builder, identity, exponent",
    FACTOR_MUTANTS,
    ids=[f"{builder}-{identity}" for builder, identity, _ in FACTOR_MUTANTS],
)
def test_routes_identity_catches_a_wrong_factor(capsys, monkeypatch, builder, identity, exponent):
    """A factor one off at z^3 fails each identity it feeds, at the first exponent it reaches."""
    exact = getattr(cli.identities, builder)
    monkeypatch.setattr(
        cli.identities,
        builder,
        lambda *args: exact(*args) + TruncSeries.monomial((3,), UPolynomial.one(), args[-1]),
    )
    code, out = run_cli(capsys, "verify", identity, "--order", "6")
    assert code == 1
    assert out.startswith(
        f"{identity} @ order 6: mismatch\n  first mismatch at exponents [{exponent}]\n"
    )


def test_two_variable_mismatch_reports_exponent_tuples(capsys, monkeypatch):
    """A (z, x) mismatch names its exponents as [deg_z, deg_x] with u-only sides."""
    exact = umbral.compare_series

    def perturbed(name, order, lhs, rhs):
        bump = TruncSeries(order, {(1, 2): UPolynomial.u(), (2, 1): UPolynomial.u(2, 5)}, rhs.vars)
        return exact(name, order, lhs, rhs + bump)

    monkeypatch.setattr(umbral, "compare_series", perturbed)
    code, out = run_cli(capsys, "--format", "json", "verify", "lemma-fm-i", "--order", "4")
    assert code == 1
    assert json.loads(out)["mismatch"] == {"exponents": [1, 2], "lhs": "0", "rhs": "u"}
    code, out = run_cli(capsys, "verify", "lemma-fm-i", "--order", "4")
    assert code == 1
    assert out == "lemma-fm-i @ order 4: mismatch\n  first mismatch at exponents [1, 2]\n  lhs: 0\n  rhs: u\n"


@pytest.mark.parametrize("error", [ValueError, AssertionError])
def test_internal_errors_exit_3(capsys, monkeypatch, error):
    def broken(name, order):
        raise error("broken builder")

    monkeypatch.setattr(cli.identities, "verify", broken)
    code = cli.main(["verify", "main", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"lacunary: internal error: {error.__name__}: broken builder\n"


@pytest.mark.parametrize(
    "target, n, enumerator",
    [
        ("matchings", 15, "enumerate_matchings"),
        ("wtrees", 6, "enumerate_w_trees"),
        ("graphs", 5, "enumerate_marked_graphs"),
    ],
)
def test_oracle_bounds_checked_before_running(capsys, monkeypatch, target, n, enumerator):
    monkeypatch.setattr(cli.oracle, enumerator, lambda n: pytest.fail("enumeration ran"))
    with pytest.raises(SystemExit) as err:
        cli.main(["oracle", target, "--n", str(n)])
    assert err.value.code == 2
    assert f"<= {n - 1}, got {n}" in capsys.readouterr().err


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "main", "--order", "-1"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "no-such-identity"])
    assert err.value.code == 2


def test_expand_w(capsys):
    code, out = run_cli(capsys, "expand", "w", "--order", "2")
    assert code == 0
    assert out == "z^0: u\nz^1: 3*u^2\nz^2: 18*u^3\n"


def test_expand_unknown_series(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "mystery"])
    assert err.value.code == 2


def test_oracle_matchings(capsys):
    code, out = run_cli(capsys, "oracle", "matchings", "--n", "3")
    assert code == 0
    assert out == "u^3 + 3*u\n"


def test_oracle_wtrees(capsys):
    code, out = run_cli(capsys, "oracle", "wtrees", "--n", "2")
    assert code == 0
    assert out == "36\n"


def test_oracle_graphs(capsys):
    code, out = run_cli(capsys, "--format", "json", "oracle", "graphs", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == {"0,1,0": "3*u", "1,0,0": "u^3"}
    assert payload["check"] == "pass"


@pytest.mark.parametrize(
    "builder, n, named",
    [("tree_gf", 3, "n=3 1,0,0"), ("multi_cycle_factor", 2, "n=2 0,0,1")],
    ids=("tree-gf", "multi-cycle"),
)
def test_census_check_names_the_profile_of_a_wrong_factor(capsys, monkeypatch, builder, n, named):
    """A factor one off at z^n fails the census check at the profile it builds."""
    exact = getattr(cli.oracle.identities, builder)
    monkeypatch.setattr(
        cli.oracle.identities,
        builder,
        lambda order: exact(order) + TruncSeries.monomial((n,), UPolynomial.one(), order),
    )
    code, out = run_cli(capsys, "oracle", "graphs", "--n", str(n))
    assert code == 1
    assert f"factor census check (n <= {n}): fail" in out
    assert any(line.startswith(f"  {named}: census ") for line in out.splitlines())
    code, out = run_cli(capsys, "--format", "json", "oracle", "graphs", "--n", str(n))
    assert code == 1
    payload = json.loads(out)
    assert payload["check"] == "fail"
    mismatches = payload["mismatches"]
    assert all(set(e) == {"n", "factor", "matched", "census", "series"} for e in mismatches)
    assert not any(e["matched"] for e in mismatches)
    assert any(f"n={e['n']} {e['factor']}" == named for e in mismatches)


def test_oracle_out_of_bounds(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["oracle", "wtrees", "--n", "9"])
    assert err.value.code == 2


def test_json_output_is_byte_stable(capsys):
    outputs = set()
    for _ in range(2):
        code, out = run_cli(capsys, "--format", "json", "expand", "rhs-main", "--order", "3")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    coefficients = json.loads(next(iter(outputs)))["coefficients"]
    assert list(coefficients) == ["z^0", "z^1", "z^2", "z^3"]


# The first 16 hex digits of sha256("<exit code>\n<stdout>") for
# `oracle <target> --n 0, 1, ...`: the CLI output is byte-stable, and a change
# to any of these bytes must be deliberate.
PINNED_ORACLE_OUTPUT = {
    ("graphs", "text"): [
        "2de68817b08d4ab8", "c2ad96de6a8a442e", "ade0b72375be92f9", "9a9f673ab7a26edd",
        "3cc6ac8f38c89b25",
    ],
    ("graphs", "json"): [
        "aab9ef8a621d7564", "8aad9c7995233da7", "48b957d6ca4a01c0", "eba2a4a9a0652c0d",
        "361698cf1d92b22d",
    ],
    ("wtrees", "text"): [
        "82c1315e6c757f33", "b9490968067ba44d", "31e8fdb170ffab7f", "bb08011cede3a783",
        "c39fef75156197c4", "c00453330006bedc",
    ],
    ("wtrees", "json"): [
        "100a579e4c6cc327", "0da9e4d0e0a4d473", "d6fcd192869c2b3e", "f81b92dc7b9d6354",
        "e8c50109b2b649b3", "9a044a7ef815f7bd",
    ],
    ("matchings", "text"): [
        "82c1315e6c757f33", "e5fadfdd38424438", "1476a00ecf8d4807", "a040c7f897287342",
        "a52eecc2e6b3500c", "1bdbe328861f33d1", "b7a16fbd1c9748e5", "3658f75eee3f027f",
        "5031483e72a2cf5b", "2c4ac859d19fe275", "3777a368dac7ebbd",
    ],
    ("matchings", "json"): [
        "a98206c4838fb3ed", "31507397ca2c4783", "3ecb3fd29a5c89ef", "dbd1262374808a4c",
        "295188d73aa4d3e8", "367cf9f20f3126f5", "3e2ccc2ca3e83e4d", "266947f640e04d84",
        "6dc95f37714db182", "c91c402345d5a958", "34d69996b14e2511",
    ],
}


@pytest.mark.parametrize("target, fmt", sorted(PINNED_ORACLE_OUTPUT))
def test_oracle_output_is_pinned(capsys, target, fmt):
    digests = []
    for n in range(len(PINNED_ORACLE_OUTPUT[target, fmt])):
        code, out = run_cli(capsys, "--format", fmt, "oracle", target, "--n", str(n))
        digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16])
    assert digests == PINNED_ORACLE_OUTPUT[target, fmt]


def _modules_after(statement):
    """The modules a fresh interpreter holds after running ``statement``."""
    probe = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


def test_cold_import_skips_dataclasses_inspect_and_json():
    added = _modules_after("import lacunary.cli") - _modules_after("pass")
    assert "lacunary.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=("unbuffered", "buffered"))
def test_closed_stdout_pipe_is_not_an_error(unbuffered):
    # the reader is gone before anything is written, as in `lacunary ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lacunary.cli", "hermite", "--kind", "h", "--n", "3"],
            env=child_env(PYTHONUNBUFFERED=unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_report_and_census_records_are_immutable():
    poly = UPolynomial.one()
    entry = oracle.CensusCheckEntry(0, "total", poly, poly)
    records = [
        (Mismatch((0,), poly, poly), "lhs"),
        (IdentityReport("main", 0), "mismatch"),
        (oracle.ComponentCensus(0, {}), "by_profile"),
        (entry, "census"),
        (oracle.CensusCheckReport(0, (entry,)), "entries"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
