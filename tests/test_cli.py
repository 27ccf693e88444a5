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
    # main solves its right side's own ODE and reads none of these builders;
    # rhs-main-routes compares that solution with their product
    ("tree_gf", "rhs-main-routes", 3),
    ("one_cycle_factor", "rhs-main-routes", 3),
    ("multi_cycle_factor", "rhs-main-routes", 3),
    ("lhs_lacunary", "main", 3),
    ("one_cycle_power_route", "one-cycle-routes", 3),
    ("multi_cycle_factor", "hypergeom", 3),
    ("w_fixed_point", "w-routes", 3),
    ("w_closed_form", "w-routes", 3),
    ("tree_gf_product_route", "tree-gf-routes", 3),
    ("tree_gf_integral_route", "tree-gf-routes", 3),
    ("one_cycle_exp_log_route", "one-cycle-routes", 3),
    ("hypergeom_series_route", "hypergeom", 3),
    # w enters 1 - 6wz multiplied by z, and the hypergeometric argument at z^2 more;
    # main builds its factors from 1 - 12uz and reads no w
    ("w_series", "one-cycle-routes", 4),
    ("w_series", "hypergeom", 6),
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


# (what is changed, how, the identity that reads it, first exponent that mismatches)
MAIN_TERM_MUTANTS = [
    # rhs_main's -81 u z^4 F'' first reads row 2, in the equation for row 5; made -82
    ("_F_OPERATOR", lambda exact: {**exact, (2, 4, 1): exact[2, 4, 1] - 1}, "main", 5),
    # rhs_doetsch's -4 z^2 F' first reads row 1, in the equation for row 3; made -5
    ("_DOETSCH_OPERATOR", lambda exact: {**exact, (1, 2, 0): exact[1, 2, 0] - 1}, "doetsch", 3),
    # main reads no c_n; the product route does, through the multi-cycle factor
    (
        "multi_cycle_coefficient",
        lambda exact: lambda n: exact(n) + (1 if n == 1 else 0),
        "rhs-main-routes",
        2,
    ),
    # hypergeom compares the scalars before the series, so its scalar check fires
    (
        "multi_cycle_coefficient",
        lambda exact: lambda n: exact(n) + (1 if n == 1 else 0),
        "hypergeom",
        1,
    ),
]


@pytest.mark.parametrize(
    "name, mutate, identity, exponent",
    MAIN_TERM_MUTANTS,
    ids=[
        name if identity != "hypergeom" else f"{name}-{identity}"
        for name, _, identity, _ in MAIN_TERM_MUTANTS
    ],
)
def test_main_catches_a_wrong_term(capsys, monkeypatch, name, mutate, identity, exponent):
    """A wrong operator entry or multi-cycle scalar fails its identity at its first exponent."""
    monkeypatch.setattr(cli.identities, name, mutate(getattr(cli.identities, name)))
    code, out = run_cli(capsys, "verify", identity, "--order", "8")
    assert code == 1
    assert out.startswith(
        f"{identity} @ order 8: mismatch\n  first mismatch at exponents [{exponent}]\n"
    )


def test_corollary_mismatch_stops_before_ecor(capsys, monkeypatch):
    """A wrong fourth moment fails the corollary half, at z^2 x^0, and ecor never runs."""
    exact = umbral.m_moment
    monkeypatch.setattr(umbral, "m_moment", lambda n: exact(n) + (n == 4))
    code, out = run_cli(capsys, "verify", "corollary-ecor", "--order", "8")
    assert code == 1
    assert out == (
        "corollary-ecor @ order 8: mismatch\n  first mismatch at exponents [2, 0]\n"
        "  lhs: 2\n  rhs: 3/2\n"
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


# The same digests for `expand <series> --order 0, 1, ..., 12`, recorded with the
# flat integer-term series kernel: a kernel change must not move a byte.
PINNED_EXPAND_OUTPUT = {
    ("hermite-H-egf", "json"): [
        "8e7ba0a047bc6626", "beb05cfc0d978074", "92407a0a5e9d5c32", "e310cdf2fffe72ff",
        "a315dd542ed61fe6", "3b183d9e7c9be354", "5c28d7bd08442fd8", "d1b4e9f02531248b",
        "511c9d2898aa3a63", "85a7fcd1c1fa2cb0", "8db24cb6ec6b2212", "0f1bad504b2dea3c",
        "7a0070dcfea206b1",
    ],
    ("hermite-H-egf", "text"): [
        "9326ff5efd4f01a7", "51dfebfc05a5db85", "55c72c4e2ce86cd9", "c3b1a9c4c2f8eb4d",
        "247a043e6df8e42b", "bfe27c8205ecfc3e", "cf55e560fcd6ed7a", "50e33c2a76838e1c",
        "c9d58a9c3d4f3251", "24b7e67a225150cb", "615548ac3ef0ee31", "0ad7f10a54580cfa",
        "3436716f9f7c994d",
    ],
    ("hermite-h-egf", "json"): [
        "293607f48266846e", "fe1e540915637f93", "10d0af5a137fb250", "9dd69f722b1f26bc",
        "1be6220ea5a03cf3", "9970ea3ea0a3c99d", "8ee6defb94f8fa6e", "61085e215f4f585d",
        "d181f5cdae7b4ef2", "aa40ea2a72a737c9", "a819ca8a878892c6", "ee1a8a70430c1121",
        "c5dceafc80590101",
    ],
    ("hermite-h-egf", "text"): [
        "9326ff5efd4f01a7", "11726d29c385fb7c", "b4fe682bf359c1aa", "c3212a4f23ad88b5",
        "c588179826fa7e09", "bb0eff18c5105fba", "29191c864571ab6f", "d7c715ffdba2f2a2",
        "df298fe3332f58e8", "86b4d59a5b3ded99", "d0fdf1351d9ed784", "9027e83610d225c2",
        "b2c2cb2fe2644e59",
    ],
    ("lhs-doetsch", "json"): [
        "c3219112b4e5a6f6", "5e266d6b4637bcce", "1da665602dc34e06", "74cc1703bde8d55b",
        "8fc881f6f760ae6d", "f8949d609274de33", "8c673a6069d4cdca", "9d684d0022a1b5c2",
        "6de343fa6972e537", "5a8d7cf8772ed36c", "de800f3cb09723fe", "dce99fa5dc0fad99",
        "aabb02bae7df9dce",
    ],
    ("lhs-doetsch", "text"): [
        "9326ff5efd4f01a7", "3879f45f93733edd", "ca80184c8b2d31b5", "26383064026811a7",
        "35b912728d593156", "f8092e326169b82f", "070a412bcbedf45d", "d6e69d7603824402",
        "e8936b15279882e3", "387bd575d38beec3", "71bfc10fd34b841a", "b095bf00b0fc1af3",
        "b913ef6cb16a89aa",
    ],
    ("lhs-main", "json"): [
        "c3bf58a9cadb5d52", "09cfdbb4ba04bcef", "2b8b283c2776f97a", "a4dc98494d381a29",
        "2ccaf13c8d2d3e9a", "971f3be4a3b15ac9", "153929ad3bfb44c7", "bd84daa27f127107",
        "136ac938b95f195c", "88a86c4ba5fb0674", "8994c2feb4a0f838", "39c79d269ff011a9",
        "347c40180ceb15c2",
    ],
    ("lhs-main", "text"): [
        "9326ff5efd4f01a7", "519fc16a9c542d97", "e9e451485cc68dae", "702f46d5abeb8242",
        "f1a89fc518a8c306", "00fc5b471fc3db8b", "a2b0624ef69bbf60", "662eafcc731e53a2",
        "3e1258eb2f4a27af", "12916648fd4ddcca", "e51cd07a1229b3b5", "dca9a34ca9465901",
        "aebccdba610b7963",
    ],
    ("multi-cycle", "json"): [
        "a456f2cf5e2760d7", "695074a9bedaafa5", "a664b08a0e0f2966", "e48320ff4ca9a385",
        "b5f940df090f0bc5", "73dfc072f691dfd6", "894793188dd83488", "d6255caf627ec5f2",
        "6039578bc7d74c4f", "8de9e89c17f39f1d", "19ceb6c77fcf369a", "cecc324751cb189c",
        "a0f1a08abd0b3f99",
    ],
    ("multi-cycle", "text"): [
        "9326ff5efd4f01a7", "9326ff5efd4f01a7", "bf461eaf3e5dc241", "8bf9e434d0564f95",
        "54e6722bac012283", "ced993267a47200a", "b85fb2801b116758", "25e1c90351888a48",
        "486ac9a00b5af78e", "0e2131554a009766", "779f91cf39cf05e4", "0165fe2ac622981b",
        "5fad24242899daea",
    ],
    ("one-cycle", "json"): [
        "0e08fab5acf2a4cc", "ea946fac3437e044", "b2739d38c2989ace", "7d22e5d0fd5236c8",
        "e472f31fa69005c8", "aa68c7bce5a16fe1", "210da1d4edfb7fb0", "4285f19b7f291055",
        "5766300566b1eeea", "dc57a430b15e45cb", "8d6fe7421a704f9a", "14a5a85e2dc3d8ed",
        "792b72d807b0cc39",
    ],
    ("one-cycle", "text"): [
        "9326ff5efd4f01a7", "2d6b65e53b2b0065", "d9148d8acdeb8ba9", "c5a797c95cb9cf6f",
        "a72adc258794b5f5", "c84fd0169e01e104", "e4834543ff7967bd", "e159b39e536c0e5f",
        "9014c7fc3c0441a4", "268957604e3cd4ce", "07427e5aecd54d5e", "f167899098411c02",
        "231cf671c25d517c",
    ],
    ("rhs-doetsch", "json"): [
        "f55ce3296ff105a1", "c757482ee39bd188", "2fdc675f88d2ba8a", "07e309e7872fb9a3",
        "29218d98843fdfb4", "cc05581e8ee114ee", "3a9b14357e1b2386", "14090df6f97f42e2",
        "f1d42df39c8505e1", "e3ea9f0fa1e9f5a2", "6a2b120a10c45492", "f0d5db3621dbb78d",
        "3b478dc7fb0cdac8",
    ],
    ("rhs-doetsch", "text"): [
        "9326ff5efd4f01a7", "3879f45f93733edd", "ca80184c8b2d31b5", "26383064026811a7",
        "35b912728d593156", "f8092e326169b82f", "070a412bcbedf45d", "d6e69d7603824402",
        "e8936b15279882e3", "387bd575d38beec3", "71bfc10fd34b841a", "b095bf00b0fc1af3",
        "b913ef6cb16a89aa",
    ],
    ("rhs-main", "json"): [
        "95994186caae312b", "1ea719d5efc38bb1", "70bf1e9f179e4076", "4c786f3a0e20cf70",
        "0822bb5cbfd54fa5", "a7fe9548eaafd2a6", "c6a84e7d4d0db3b2", "b46312005a2edbbd",
        "edcf7764e65fd5e0", "8688ac70326bd50c", "c6398c7d47bc4c81", "a7903c75b0dcb47e",
        "44909cbd39f87b83",
    ],
    ("rhs-main", "text"): [
        "9326ff5efd4f01a7", "519fc16a9c542d97", "e9e451485cc68dae", "702f46d5abeb8242",
        "f1a89fc518a8c306", "00fc5b471fc3db8b", "a2b0624ef69bbf60", "662eafcc731e53a2",
        "3e1258eb2f4a27af", "12916648fd4ddcca", "e51cd07a1229b3b5", "dca9a34ca9465901",
        "aebccdba610b7963",
    ],
    ("tree-gf", "json"): [
        "774b5a9431d4eb69", "5fcd3226a9875e61", "043253cc7ba66faa", "376e7c8b15bf574b",
        "758aec976b9e4f00", "36e7589d16a01286", "9d4997e6153999ed", "5a84f1e708ce3d39",
        "430824ccf280ca30", "aae7098315d5d3a3", "c00602fb2d4fea81", "5f23ad3a5dde4a36",
        "f270ac68eb95f0c7",
    ],
    ("tree-gf", "text"): [
        "076d8aa32d28bd0a", "ae4fda1b27bba8f0", "f90332054afba1fd", "9db558459e15534d",
        "bad0bc3d784c1ca2", "58f9fa425315ef8e", "af8685090e3e8dae", "83f04fffae056248",
        "0fbc32f22abcb2d6", "cb69d5e1de0cb94e", "328318b46de0d17d", "49907aaf11206070",
        "324c3458c10c1194",
    ],
    ("w", "json"): [
        "9693d8e0ac8ba770", "cd97dae74d7af633", "07d76a1efb484466", "b7446b2ee4bad8e7",
        "41699cc1a33e28ef", "34af18a37a49697d", "20366220cf7d5e2b", "0edf28308e06e7b0",
        "6e28fcaf664b22cf", "cc809670b130737e", "486862346887672d", "c4271183f2416c7d",
        "df95c3f72cb30ee2",
    ],
    ("w", "text"): [
        "37ff126704275a65", "05957b07ee5b4e7d", "c2ffc908e1bda386", "0993d66b00fb5977",
        "783e3c7987da7013", "ff64ff130a82656e", "312aa365466c767d", "c5757db7b46075d5",
        "af69f3ad19150386", "2e5a0e6ede8c057a", "0e7f26d1457c0e51", "4f605871692eb3a4",
        "52693eb0807279a3",
    ],
}


@pytest.mark.parametrize("series, fmt", sorted(PINNED_EXPAND_OUTPUT))
def test_expand_output_is_pinned(capsys, series, fmt):
    digests = []
    for order in range(len(PINNED_EXPAND_OUTPUT[series, fmt])):
        code, out = run_cli(capsys, "--format", fmt, "expand", series, "--order", str(order))
        digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16])
    assert digests == PINNED_EXPAND_OUTPUT[series, fmt]


# Each builds every series it prints from integer rows, with no series product.
KERNEL_FREE_RUNS = [
    *(("expand", name, "--order", "24") for name in sorted(cli.SERIES_BUILDERS)),
    *(("verify", name, "--order", "48") for name in ("main", "doetsch")),
    *(("hermite", "--kind", kind, "--n", "40") for kind in "hH"),
]


def test_expand_headline_checks_and_hermite_run_without_the_series_kernel(capsys, monkeypatch):
    """With the kernel's one product entry raising, every expand series, both headline
    checks and both Hermite kinds still exit 0 with the same bytes: the series algebra
    serves only the check routes, the umbral lemmas and the census check."""

    def run(argv):
        return cli.main(list(argv)), *capsys.readouterr()

    expected = [run(argv) for argv in KERNEL_FREE_RUNS]

    def no_kernel(*args):
        raise AssertionError("the series kernel ran")

    monkeypatch.setattr("lacunary.series._sum_products", no_kernel)
    monkeypatch.setattr(umbral, "_sum_products", no_kernel)
    for argv, (code, out, err) in zip(KERNEL_FREE_RUNS, expected):
        assert (code, err) == (0, "") and run(argv) == (0, out, ""), argv


def test_verified_headline_checks_compare_rows_without_lowering(capsys, monkeypatch):
    """With the ``Rational`` that lowers integer rows raising, ``verify main`` and
    ``verify doetsch`` still verify: equal rows of one stride compare equal unlowered.
    ``expand`` prints the lowered coefficients, so it reaches the patch and fails."""

    def no_rational(*args):
        raise AssertionError("a row was lowered")

    monkeypatch.setattr("lacunary.hermite.Rational", no_rational)
    for identity in ("main", "doetsch"):
        code, out = run_cli(capsys, "verify", identity, "--order", "48")
        assert (code, out) == (0, f"{identity} @ order 48: verified\n")
    code = cli.main(["expand", "lhs-main", "--order", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "lacunary: internal error: AssertionError: a row was lowered\n"


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
