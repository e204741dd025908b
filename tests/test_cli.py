"""File format and command-line behavior: parsing, exit codes, determinism."""

import hashlib
import json
import os
import re
import sys

import pytest

from quivergrass import cluster
from quivergrass.cli import COMMANDS, _parser, main, run
from quivergrass.counting import gaussian_binomial
from quivergrass.errors import DomainError
from quivergrass.fields import QQ
from quivergrass.repfile import format_intervals, parse_intervals, parse_rep_document
from quivergrass.typea import (IntervalDecomposition, degenerate_flag_dec, flag_dec,
                               injective_cogenerator_dec, most_flat_dec, path_algebra_dec,
                               poincare_polynomial, random_decomposition)

EX4 = json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                  "dims": [2, 2], "matrices": {"0": [[1, 0], [0, 0]]}})


@pytest.fixture
def ex4_file(tmp_path):
    path = tmp_path / "ex4.rep"
    path.write_text(EX4)
    return str(path)


@pytest.fixture
def mf3_file(tmp_path):
    doc = {"vertices": 3, "arrows": [[1, 2], [2, 3]], "field": "Q",
           "intervals": "U[1,3] + U[2,3] + U[3,3]^2 + U[1,1]^2 + U[1,2] + U[2,2]"}
    path = tmp_path / "m2_n3.rep"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_round_trip_is_identity():
    m, echo = parse_rep_document(EX4)
    m_again, echo_again = parse_rep_document(json.dumps(echo))
    assert echo_again == echo and m_again == m


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(DomainError) as err:
        parse_rep_document("{\"vertices\": 2,\n  broken")
    assert "line 2" in str(err.value)


def test_parse_requires_exactly_one_payload():
    base = {"vertices": 1, "arrows": [], "field": "Q"}
    with pytest.raises(DomainError):
        parse_rep_document(json.dumps(base))
    both = dict(base, dims=[1], matrices={}, intervals="U[1,1]")
    with pytest.raises(DomainError):
        parse_rep_document(json.dumps(both))


def test_parse_validates_shapes_and_entries():
    bad = {"vertices": 2, "arrows": [[1, 2]], "field": "Q", "dims": [2, 2],
           "matrices": {"0": [[1, 0]]}}
    with pytest.raises(DomainError):
        parse_rep_document(json.dumps(bad))
    bad["matrices"] = {"0": [[1, 0.5], [0, 0]]}
    with pytest.raises(DomainError):
        parse_rep_document(json.dumps(bad))
    good = {"vertices": 2, "arrows": [[1, 2]], "field": "Fp:3", "dims": [1, 1],
            "matrices": {"0": [["1/2"]]}}
    m, echo = parse_rep_document(json.dumps(good))
    assert m.matrix(0) == ((2,),)  # 1/2 = 2 mod 3
    assert echo["matrices"] == {"0": [["1/2"]]}  # echoed as written, not reduced


@pytest.mark.parametrize("change", [
    {"arrows": [[1]]}, {"arrows": 5}, {"arrows": [["a", "b"]]},
    {"dims": "ab"}, {"dims": 3}, {"dims": [1.5, 1], "matrices": {"0": [[1]]}},
    {"matrices": [[1]]}, {"matrices": {"0": 5}}, {"matrices": {"0": [5]}},
    {"field": 7}, {"intervals": 5, "dims": None, "matrices": None},
    {"vertices": True, "arrows": [], "dims": [1], "matrices": {}},
    {"dims": [0, 2], "matrices": {"0": [[5], [7]]}},
    {"dims": [2, 0], "matrices": {"0": [[5, 1, 3]]}},
    {"dims": [2], "matrices": {}},
], ids=repr)
def test_ill_typed_rep_file_exit_2(tmp_path, change):
    doc = {k: v for k, v in dict(json.loads(EX4), **change).items() if v is not None}
    path = tmp_path / "bad.rep"
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError):
        parse_rep_document(path.read_text())
    code, text = run(["decompose", "--rep", str(path)])
    assert code == 2 and text.startswith("error: ")


D4_FILE = {"vertices": 4, "arrows": [[1, 4], [2, 4], [3, 4]], "field": "Q",
           "dims": [1, 1, 1, 2], "matrices": {"0": [[1], [0]], "1": [[0], [1]],
                                              "2": [[1], [1]]}}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "top level must be an object"),
    ({"vertices": 2, "arrows": [[1, 2]], "dims": [1, 1], "matrices": {}},
     "missing field 'field'"),
    (dict(json.loads(EX4), extra=1), "unknown fields ['extra']"),
    ({"vertices": 2, "arrows": [[1, 2]], "field": "Q", "intervals": "U[1,2]",
      "dims": [1, 2]}, "do not match the intervals"),
    ({"vertices": 2, "arrows": [[2, 1]], "field": "Q", "intervals": "U[1,2]"},
     "needs the equioriented A_n quiver"),
    ({"vertices": 2, "arrows": [[1, 2]], "field": "Q", "matrices": {}},
     "missing field 'dims'"),
    (dict(json.loads(EX4), matrices={"a": [[1, 0], [0, 0]]}), "is not a 0-based arrow index"),
    (dict(json.loads(EX4), matrices={"1": [[1, 0], [0, 0]]}), "out of range for 1 arrows"),
    (dict(json.loads(EX4), field="Fp:x"), "malformed field name 'Fp:x'"),
    (dict(json.loads(EX4), field="R"), "unknown field 'R'"),
], ids=["top-level", "missing", "unknown", "interval-dims", "interval-quiver",
        "no-dims", "key", "key-range", "Fp:x", "R"])
def test_rep_file_refusals_exit_2(tmp_path, doc, message):
    path = tmp_path / "bad.rep"
    path.write_text(json.dumps(doc))
    code, text = run(["decompose", "--rep", str(path)])
    assert code == 2 and text.startswith("error: ") and message in text


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--intervals", "U[1,2]"], "--intervals requires --n"),
    (["count", "--rep", "{fp5}", "--e", "1,1", "--p", "7"],
     "--p 7 conflicts with the file's field GF(5)"),
    (["count", "--rep", "{q}", "--e", "1,1"], "--p is required for a representation over Q"),
])
def test_prime_and_interval_flag_refusals_exit_2(tmp_path, argv, message):
    files = {}
    for name, field in (("fp5", "Fp:5"), ("q", "Q")):
        files[name] = tmp_path / f"{name}.rep"
        files[name].write_text(json.dumps(dict(json.loads(EX4), field=field)))
    code, text = run([a.format(**files) for a in argv])
    assert (code, text) == (2, f"error: {message}\n")


def test_verify_mult_on_a_split_pair_notes_it(tmp_path):
    # Ext^1(S_2, S_1) = 0 on 1 -> 2: the class splits
    paths = []
    for name, intervals in (("x", "U[1,1]"), ("s", "U[2,2]")):
        path = tmp_path / f"{name}.rep"
        path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                                    "intervals": intervals}))
        paths.append(str(path))
    code, text = run(["verify-mult", "--x", paths[0], "--s", paths[1],
                      "--format", "machine"])
    assert code == 0
    assert json.loads(text)["outputs"] == {
        "kind": "split", "note": "split class: the multiplication formula does not apply"}


def test_ar_quiver_of_a_d4_file(tmp_path):
    path = tmp_path / "d4.rep"
    path.write_text(json.dumps(D4_FILE))
    code, text = run(["ar-quiver", "--rep", str(path), "--format", "machine"])
    assert code == 0
    out = json.loads(text)["outputs"]
    assert len(out["vertices"]) == 12 and [1, 1, 1, 2] in out["vertices"]
    assert [out["vertices"][k] for k in out["projectives"]] == \
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]


def test_interval_syntax():
    dec = parse_intervals("U[1,2]^2 + U[2,2]", 2)
    assert dec.m == {(1, 2): 2, (2, 2): 1}
    assert format_intervals(dec) == "U[1,2]^2 + U[2,2]"
    with pytest.raises(DomainError):
        parse_intervals("U[1,2)^2", 2)
    with pytest.raises(DomainError):
        parse_intervals("U[1,3]", 2)


def test_unknown_subcommand_exit_1():
    code, text = run(["frobnicate"])
    assert code == 1 and "unknown subcommand" in text
    code, text = run([])
    assert code == 1 and "no subcommand given" in text


@pytest.mark.parametrize("argv, code, fragment", [
    (["catenoid", "--intervals", "U[1,2]", "--n", "2"], 0, "subcommand: catenoid"),
    ([], 1, "no subcommand given"),
    (["count", "--intervals", "U[1,2]", "--n", "2", "--e", "1,1"], 2, "--p is required"),
])
def test_main_writes_success_to_stdout_and_failure_to_stderr(monkeypatch, capsys,
                                                             argv, code, fragment):
    monkeypatch.setattr("sys.argv", ["quivergrass", *argv])
    assert main() == code
    out, err = capsys.readouterr()
    assert fragment in (out if code == 0 else err)
    assert (out, err) == ((run(argv)[1], "") if code == 0 else ("", run(argv)[1]))


def test_malformed_file_exit_2(tmp_path):
    path = tmp_path / "bad.rep"
    path.write_text("{nope")
    code, text = run(["count", "--rep", str(path), "--e", "1,1", "--p", "2"])
    assert code == 2 and "line 1" in text


U12 = ["--intervals", "U[1,2]", "--n", "2"]


@pytest.mark.parametrize("argv", [
    ["count", "--p", "2"], ["poly"], ["cells"], ["poincare"], ["strata"], ["euler"]])
def test_e_exceeding_dim_m_exit_2(argv):
    code, text = run([*argv, *U12, "--e", "3,0"])
    assert (code, text) == (2, "error: e=(3, 0) exceeds dim M=(1, 1)\n")


@pytest.mark.parametrize("argv, flag", [
    (["count", *U12, "--e", "a,b", "--p", "2"], "--e"),
    (["poly", *U12, "--e", "1,1", "--primes", "2,x"], "--primes"),
    (["decompose", "--bogus"], "--bogus"),
    (["decompose", "--n", "x"], "--n"),
    (["decompose", *U12, "--p", "5"], "--p"),
    (["hom", *U12, "--p", "7"], "--p"),
    (["hom", *U12], "--rep2"),
    (["ar-quiver", "--intervals", "U[1,2]", "--n", "3"], "--intervals"),
    (["count", *U12, "--e", "1,1", "--p", "2", "--seed", "3"], "--seed"),
    (["decompose", "--rep", "m.rep", "--n", "2"], "--n"),
    (["psi-check", "--x", "x.rep", "--s", "s.rep", "--e", "1,1"], "--primes"),
    (["count", "--rep", "m.rep", *U12, "--e", "1,1"], "--intervals"),
])
def test_usage_errors_exit_2(argv, flag):
    code, text = run(argv)
    assert code == 2 and text.startswith("error: ") and flag in text.splitlines()[0]


def test_subcommand_help_exit_0():
    code, text = run(["count", "--help"])
    assert code == 0 and text.startswith("usage: quivergrass count")
    assert "--e CSV" in text and "--seed" not in text
    code, text = run(["--help"])
    assert code == 0 and all(f"quivergrass {name} " in text for name in COMMANDS)


@pytest.mark.parametrize("argv, code, start", [
    (["catenoid", *U12], 0, "subcommand: catenoid"),
    (["cells", *U12], 2, "error: the following arguments are required: --e\n"
                         "usage: quivergrass cells"),
    (["count", "--help"], 0, "usage: quivergrass count"),
    (["decompose", *U12, "--p", "5"], 2, "error: decompose does not take --p\n"
                                         "usage: quivergrass decompose"),
])
def test_parser_is_built_once_and_reused(argv, code, start):
    """Each subcommand's parser is built once; running the same argv again,
    on the cached parser, gives the same exit code and text."""
    first = run(argv)
    assert first[0] == code and first[1].startswith(start)
    assert _parser(argv[0]) is _parser(argv[0])
    assert run(argv) == first


def test_strategy_does_not_leak_between_runs():
    fpoly = ["fpoly", *U12, "--format", "machine"]
    auto = run(fpoly)
    counted = run([*fpoly, "--strategy", "count"])
    assert json.loads(auto[1])["provenance"]["engine"] == "cells"
    assert json.loads(counted[1])["provenance"]["engine"] == "count"
    assert run(fpoly) == auto


def test_count_at_a_prime_beyond_trial_division():
    code, text = run(["count", *U12, "--e", "0,1", "--p", "2305843009213693951"])
    assert code == 0 and "count: 1" in text


def test_readme_lists_the_table():
    """README "Command line" names the subcommands in table order, each with
    exactly the flags the table gives it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    sentence = re.search(r"Subcommands: `([^`]*)`", readme).group(1)
    assert sentence.split() == list(COMMANDS)
    for name, (_, spec) in COMMANDS.items():
        line = re.search(rf"^\* `{re.escape(name)}`: (.*)$", readme, re.M).group(1)
        assert sorted(re.findall(r"--(\w+)", line)) == sorted(re.findall(r"\w+", spec))


def test_budget_exit_3(tmp_path):
    eye = [[int(i == j) for j in range(12)] for i in range(12)]
    doc = {"vertices": 2, "arrows": [[1, 2]], "field": "Q", "dims": [12, 12],
           "matrices": {"0": eye}}
    path = tmp_path / "big.rep"
    path.write_text(json.dumps(doc))
    code, text = run(["count", "--rep", str(path), "--e", "6,6", "--p", "5",
                      "--budget", "100"])
    assert code == 3 and "budget" in text


def test_oversize_interval_module_exits_3_before_allocating():
    # 10^22 entries: building any of them would raise MemoryError
    code, text = run(["decompose", "--intervals", "U[1,2]^99999999999", "--n", "2"])
    assert code == 3 and "over the ceiling 10000000" in text
    # with no arrows nothing is built, and the ranks start at the arrows
    code, text = run(["decompose", "--intervals", "U[1,1]^99999999999", "--n", "1"])
    assert code == 0 and "99999999999" in text


def test_cells_on_more_rows_than_the_recursion_limit():
    # 1,200 rows U[1,1]: Gr_1(k^1200) is P^1199, one cell in each dimension
    code, text = run(["cells", "--intervals", "U[1,1]^1200", "--n", "1", "--e", "1",
                      "--format", "machine"])
    assert code == 0
    dims = sorted(cell["dim"] for cell in json.loads(text)["outputs"]["cells"])
    pp = poincare_polynomial(IntervalDecomposition(1, {(1, 1): 1200}), (1,))
    assert pp.coefficients == (1,) * 1200 and dims == list(range(1200))


# U[1,1500] with every e_v in {0, d_v}: 1,498 enumerated vertices, one subspace each
LONG_PATH = ["--intervals", "U[1,1500]", "--n", "1500"]


@pytest.mark.parametrize("e", ["0", "1"])
def test_count_enumerating_more_vertices_than_the_recursion_limit(e):
    code, text = run(["count", *LONG_PATH, "--e", ",".join([e] * 1500), "--p", "2",
                      "--format", "machine"])
    doc = json.loads(text)
    assert code == 0 and doc["outputs"]["count"] == 1
    assert doc["provenance"]["budget_spent"] == 1


def test_poly_enumerating_more_vertices_than_the_recursion_limit():
    code, text = run(["poly", *LONG_PATH, "--e", ",".join(["0"] * 1500),
                      "--format", "machine"])
    cp = json.loads(text)["outputs"]["counting_polynomial"]
    assert code == 0 and cp["coefficients"] == [1] and cp["consistency"] == "verified"


LIMITED = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                             reason="no limit on int <-> str conversion")


@LIMITED
def test_an_integer_beyond_the_conversion_limit_in_a_file_exits_2(tmp_path):
    long_entry = "7" * 5000
    rep = tmp_path / "long.rep"
    rep.write_text('{"vertices": 2, "arrows": [[1, 2]], "field": "Q", "dims": [1, 1], '
                   '"matrices": {"0": [[' + long_entry + ']]}}')
    witness = tmp_path / "long.json"
    witness.write_text('{"bases": [[[' + long_entry + ']], [[1]]]}')
    message = f"more than {sys.get_int_max_str_digits()} digits"
    for argv in (["decompose", "--rep", str(rep)], ["ar-quiver", "--rep", str(rep)],
                 ["tangent", *U12, "--witness", str(witness)]):
        code, text = run(argv)
        assert code == 2 and message in text


@LIMITED
def test_answers_beyond_the_conversion_limit_are_written_in_full(tmp_path):
    path = tmp_path / "one.rep"
    path.write_text(json.dumps({"vertices": 1, "arrows": [], "field": "Q", "dims": [100],
                                "matrices": {}}))
    limit = sys.get_int_max_str_digits()
    outs = [run(["count", *module, "--e", "50", "--p", "1000003", "--format", fmt])
            for module in (["--rep", str(path)], ["--intervals", "U[1,1]^100", "--n", "1"])
            for fmt in ("text", "machine")]
    # an estimate of ~60,000 digits, over budget: refused in a short message
    refusal = run(["count", "--intervals", "U[2,2]^200 + U[1,3]", "--n", "3",
                   "--e", "0,100,0", "--p", "1000003"])
    assert sys.get_int_max_str_digits() == limit
    want = gaussian_binomial(100, 50, 1000003)
    sys.set_int_max_str_digits(0)
    try:
        for (code, text), fmt in zip(outs, ["text", "machine"] * 2):
            assert code == 0
            got = int(text.split()[-1]) if fmt == "text" else \
                json.loads(text)["outputs"]["count"]
            assert got == want and len(str(want)) > 15000
        assert refusal[0] == 3 and "exceeds budget" in refusal[1] and len(refusal[1]) < 200
    finally:
        sys.set_int_max_str_digits(limit)


def _q_binomial(n, k):
    """Coefficients of the Gaussian binomial [n, k]_q, ascending, by q-Pascal."""
    if k in (0, n):
        return [1]
    left, right = _q_binomial(n - 1, k - 1), [0] * k + _q_binomial(n - 1, k)
    left += [0] * (len(right) - len(left))
    return [a + b for a, b in zip(left, right)]


def test_poly_needs_binomials_beyond_int64():
    # interpolating a degree-16 bound takes primes up to 61, where [8,4]_61 > 2**63
    code, text = run(["poly", "--intervals", "U[1,2] + U[2,2]^7", "--n", "2",
                      "--e", "1,4", "--format", "machine"])
    assert code == 0
    cp = json.loads(text)["outputs"]["counting_polynomial"]
    assert cp["consistency"] == "verified" and cp["coefficients"] == _q_binomial(7, 3)


@pytest.mark.parametrize("primes", ["0,2,3,5", "1,2,3,5"])
def test_poly_rejects_a_non_prime(primes):
    # 0 divided by zero in the bad-reduction test; 1 was reported as a skipped prime
    code, text = run(["poly", "--intervals", "U[1,2]", "--n", "2", "--e", "1,1",
                      "--primes", primes])
    assert code == 2 and text == f"error: {primes[0]} is not prime\n"


@pytest.mark.parametrize("primes", ["5,5,5,5", "2,3,5,5"])
def test_poly_rejects_repeated_primes(primes):
    # the first divided by zero; the second held out a prime it interpolated through
    code, text = run(["poly", "--intervals", "U[1,2]^2", "--n", "2", "--e", "1,1",
                      "--primes", primes])
    assert code == 2 and "repeated primes" in text


def test_psi_check_rejects_repeated_primes(tmp_path):
    # it reported p = 2 twice and exited 0
    paths = []
    for name, intervals in (("x", "U[2,2]"), ("s", "U[1,1]")):
        path = tmp_path / f"{name}.rep"
        path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                                    "intervals": intervals}))
        paths.append(str(path))
    code, text = run(["psi-check", "--x", paths[0], "--s", paths[1], "--e", "1,1",
                      "--primes", "2,2"])
    assert code == 2 and "repeated primes" in text


def test_poly_inconsistent_at_the_held_out_prime_prints_no_euler(tmp_path):
    # Kronecker module with maps I and a rotation: #Gr_(1,1) counts the roots
    # of x^2 + 1, 2 at 5, 13 and 17 but none at the held-out 3
    path = tmp_path / "rot.rep"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2], [1, 2]], "field": "Q",
                                "dims": [2, 2], "matrices": {"0": [[1, 0], [0, 1]],
                                                             "1": [[0, -1], [1, 0]]}}))
    for fmt in ("text", "machine"):
        code, text = run(["poly", "--rep", str(path), "--e", "1,1",
                          "--primes", "5,13,17,3", "--format", fmt])
        assert code == 0 and "inconsistent" in text
        assert "euler_characteristic" not in text and "betti_numbers" not in text
    assert json.loads(text)["outputs"]["counting_polynomial"]["held_out"] == [3, 0]


def test_poly_budget_checked_at_the_largest_prime():
    code, text = run(["poly", "--intervals", "U[1,3]^4", "--n", "3", "--e", "1,2,2",
                      "--budget", "1000000"])
    assert code == 3 and "exceeds budget" in text and "2898086" in text


def test_count_reports_the_planned_estimate():
    # flag variety of F^4 at e = (1,2,3): the estimate counts the planes at
    # vertex 2, the leaf, though its closed form draws none of them
    code, text = run(["count", "--intervals", "U[1,3]^4", "--n", "3", "--e", "1,2,3",
                      "--p", "5", "--format", "machine"])
    doc = json.loads(text)
    assert code == 0 and doc["outputs"]["count"] == 6 * 31 * 156
    assert doc["provenance"]["budget_spent"] == 806

def test_count_subcommand(ex4_file):
    code, text = run(["count", "--rep", ex4_file, "--e", "1,1", "--p", "2"])
    assert code == 0 and "count: 5" in text


def test_count_on_a_prime_field_file_needs_no_p(tmp_path):
    # the identity 2 x 2 map over GF(3): Gr_(1,1) is P^1(F_3), 4 points
    path = tmp_path / "eye3.rep"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Fp:3",
                                "dims": [2, 2], "matrices": {"0": [[1, 0], [0, 1]]}}))
    code, text = run(["count", "--rep", str(path), "--e", "1,1", "--format", "machine"])
    doc = json.loads(text)
    assert code == 0 and doc["outputs"]["count"] == 4 and doc["inputs"]["p"] == 3


def test_poly_reports_the_primes_it_skipped(tmp_path):
    path = tmp_path / "third.rep"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                                "dims": [1, 1], "matrices": {"0": [["1/3"]]}}))
    code, text = run(["poly", "--rep", str(path), "--e", "1,0", "--format", "machine"])
    assert code == 0
    assert 3 in json.loads(text)["outputs"]["counting_polynomial"]["skipped_primes"]


def test_intervals_document_echoes_matching_dims(tmp_path):
    path = tmp_path / "dims.rep"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                                "intervals": "U[1,2] + U[2,2]", "dims": [1, 2]}))
    code, text = run(["decompose", "--rep", str(path), "--format", "machine"])
    assert code == 0 and json.loads(text)["inputs"]["document"]["dims"] == [1, 2]


def test_flat_locus_subcommand(mf3_file):
    code, text = run(["flat-locus", "--rep", mf3_file])
    assert code == 0 and "flat-only" in text


def test_catenoid_subcommand():
    code, text = run(["catenoid", "--intervals",
                      "U[3,3]+U[2,3]^2+U[2,2]+U[1,2]+U[1,1]", "--n", "3"])
    assert code == 0 and "true" in text


def test_machine_output_deterministic(ex4_file):
    argv = ["poly", "--rep", ex4_file, "--e", "1,1", "--format", "machine"]
    out1 = run(argv)
    out2 = run(argv)
    assert out1 == out2 and out1[0] == 0
    doc = json.loads(out1[1])
    assert doc["outputs"]["counting_polynomial"]["coefficients"] == [1, 2]
    assert doc["provenance"]["primes"] == [2, 3, 5]
    assert set(doc) == {"subcommand", "inputs", "outputs", "provenance"}


def test_machine_output_reparse_rerun_byte_identical(ex4_file, tmp_path):
    """Feeding the echoed input document back in reproduces the bytes."""
    argv = ["count", "--rep", ex4_file, "--e", "1,1", "--p", "2",
            "--format", "machine"]
    code, text = run(argv)
    assert code == 0
    echoed = json.loads(text)["inputs"]["document"]
    path = tmp_path / "echo.rep"
    path.write_text(json.dumps(echoed))
    code2, text2 = run(["count", "--rep", str(path), "--e", "1,1", "--p", "2",
                        "--format", "machine"])
    assert code2 == 0 and text2 == text


def test_decompose_reserialize_fixed_point(ex4_file, tmp_path):
    code, text = run(["decompose", "--rep", ex4_file, "--format", "machine"])
    assert code == 0
    intervals = json.loads(text)["outputs"]["intervals"]
    doc = {"vertices": 2, "arrows": [[1, 2]], "field": "Q",
           "intervals": intervals}
    path = tmp_path / "intervals.rep"
    path.write_text(json.dumps(doc))
    code2, text2 = run(["decompose", "--rep", str(path), "--format", "machine"])
    assert code2 == 0
    assert json.loads(text2)["outputs"]["intervals"] == intervals


def test_hom_ext_subcommands(tmp_path, ex4_file):
    s1 = {"vertices": 2, "arrows": [[1, 2]], "field": "Q", "dims": [1, 0],
          "matrices": {}}
    p = tmp_path / "s1.rep"
    p.write_text(json.dumps(s1))
    code, text = run(["hom", "--rep", str(p), "--rep2", ex4_file])
    assert code == 0 and "hom_dim: 1" in text
    code, text = run(["ext", "--rep", str(p), "--rep2", str(p)])
    assert code == 0 and "ext1_dim: 0" in text


def test_tangent_subcommand(ex4_file, tmp_path):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"bases": [[[0, 1]], [[1, 0]]]}))
    code, text = run(["tangent", "--rep", ex4_file, "--witness", str(w)])
    assert code == 0 and "tangent_dim: 2" in text


def test_tangent_malformed_witness_exit_2(ex4_file, tmp_path):
    w = tmp_path / "w.json"
    for doc in ({"base": []}, {"bases": [[["x"]]]}, [1], {"bases": [[[True, 0]], [[1.0, 0]]]}):
        w.write_text(json.dumps(doc))
        code, text = run(["tangent", "--rep", ex4_file, "--witness", str(w)])
        assert code == 2 and "--witness" in text
    code, text = run(["tangent", "--rep", ex4_file, "--witness", str(tmp_path / "none")])
    assert code == 2 and text.startswith("error: cannot read")


def test_tangent_witness_outside_the_module_exit_2(ex4_file, tmp_path):
    w = tmp_path / "w.json"
    for bases in ([[[1, 0, 0]], [[1, 0]]], [[[1, 0], [0]], []]):  # row too long; ragged
        w.write_text(json.dumps({"bases": bases}))
        code, text = run(["tangent", "--rep", ex4_file, "--witness", str(w)])
        assert code == 2 and text.startswith("error: witness")


def test_verify_mult_subcommand(tmp_path):
    s = {"vertices": 2, "arrows": [[1, 2]], "field": "Q", "intervals": "U[1,1]"}
    x = {"vertices": 2, "arrows": [[1, 2]], "field": "Q", "intervals": "U[2,2]"}
    sp = tmp_path / "s.rep"
    xp = tmp_path / "x.rep"
    sp.write_text(json.dumps(s))
    xp.write_text(json.dumps(x))
    code, text = run(["verify-mult", "--x", str(xp), "--s", str(sp),
                      "--format", "machine"])
    assert code == 0
    out = json.loads(text)["outputs"]
    assert out["holds"] is True and out["residual"] == []
    assert out["middle_term"] == "U[1,2]"
    code, text = run(["psi-check", "--x", str(xp), "--s", str(sp),
                      "--e", "1,1", "--primes", "2,3", "--format", "machine"])
    assert code == 0 and json.loads(text)["outputs"]["holds"] is True


# sha256 of the output of the tuple-keyed product and the separately sorted
# rendering it replaced: term order and text must not move by one byte
POLYNOMIAL_OUTPUT_DIGESTS = {
    ("fpoly", "degenerate_flag", "text"):
        "dfc1c4daeef270e46c05a5defe1bc35580d71ac1ccc3acbd03a851a04220b350",
    ("fpoly", "degenerate_flag", "machine"):
        "c84c3988e9d772d39f725bc4d7e6d6fc838214310e126838967f69d23d339114",
    ("cc", "degenerate_flag", "text"):
        "4fd20b27d8312b2b94957b6d512ccc6baa445457a5664ae4c94a1b4fe19ad112",
    ("cc", "degenerate_flag", "machine"):
        "dbac973157db0edde514ec0b4187a969ccc47f289b9b95da5d0a408462509bd5",
    ("fpoly", "most_flat", "text"):
        "976e7cc02975d48fedd4d1628972e1947376af778a81085a477a7360f7aa773c",
    ("fpoly", "most_flat", "machine"):
        "c39c26f4ee0bb1141a220c56f33c338572513e3ce88132f6a9d9a51d24790c1a",
    ("cc", "most_flat", "text"):
        "29bf7ee61be6e32a795e7bd62243472129358e734b4b32068ee50a5ffac456fc",
    ("cc", "most_flat", "machine"):
        "808b16a14c02743664b13268ba39876a3e354aaa1510b8fe9ae9ce0fbfbdca6e",
    ("verify-mult", "U[1,3] + U[3,3] by U[1,2]", "text"):
        "895ab2ba07a74cc0739e20fdb674bdfaf08193bc644f0c74e8c7db256443b835",
    ("verify-mult", "U[1,3] + U[3,3] by U[1,2]", "machine"):
        "1316e92ca3eb1e41b87b49499703ca3b002875dd8edacb189a2c33e8285470dd",
}


# sha256 of the same outputs at n = 6, the size the benchmark runs, from the
# dict-keyed product and the term-by-term text that the sorted key and
# coefficient arrays replaced
BENCHMARK_SIZE_POLYNOMIAL_DIGESTS = {
    ("fpoly", "degenerate_flag", "text"):
        "a9b8b42fd427aa00f3d92e27dcc642919876deb2f4fa41f2ea84fc08cdf16e62",
    ("fpoly", "degenerate_flag", "machine"):
        "251411e675bc29ca242e58dd60672d3bd1931895b62dd6fcc90318d4668e57d9",
    ("cc", "degenerate_flag", "text"):
        "cf213a4206d444a4e39f77b81697316538cccdf5a237afd336e9278aeef4ed92",
    ("cc", "degenerate_flag", "machine"):
        "8158a0b48227f2b6d364163ccf52bc8918e775f5e2d2e27682856b852e5efacf",
    ("fpoly", "most_flat", "text"):
        "f7c9f7acb367897c15ede4f8027ad662ff748cc05d4e8f1d0f1fc4c781669f37",
    ("fpoly", "most_flat", "machine"):
        "60a5fa18393ef354fd50ddc0a7f9800169265e1e3c6bec49ccf04551fcdfbc20",
    ("cc", "most_flat", "text"):
        "ced179878651eb57f90ca1cfcb16a293788cc8b09bd172f6ac31d22fa755edcd",
    ("cc", "most_flat", "machine"):
        "81033aca82584b8398ec8cf6ab17a712ba02c908385264e13c59935d039f51c6",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("sub", ["fpoly", "cc"])
@pytest.mark.parametrize("name,family", [("degenerate_flag", degenerate_flag_dec),
                                         ("most_flat", most_flat_dec)])
def test_polynomial_output_bytes_are_pinned(sub, name, family, fmt):
    code, text = run([sub, "--intervals", format_intervals(family(4)), "--n", "4",
                      "--format", fmt])
    assert code == 0 and _sha256(text) == POLYNOMIAL_OUTPUT_DIGESTS[(sub, name, fmt)]


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("sub", ["fpoly", "cc"])
@pytest.mark.parametrize("name,family", [("degenerate_flag", degenerate_flag_dec),
                                         ("most_flat", most_flat_dec)])
def test_polynomial_output_bytes_at_benchmark_size_are_pinned(sub, name, family, fmt):
    """12,597 and 38,130 terms: the term order, the text and the JSON of the
    largest F-polynomials and cluster characters the benchmark reads."""
    code, text = run([sub, "--strategy", "cells", "--intervals", format_intervals(family(6)),
                      "--n", "6", "--format", fmt])
    assert code == 0 and _sha256(text) == BENCHMARK_SIZE_POLYNOMIAL_DIGESTS[(sub, name, fmt)]


# sha256 of the output of the unpruned fixed-point search with a separate
# cell_dimension per point: point order and dimensions must not move
FIXED_POINT_OUTPUT_DIGESTS = {
    ("cells", "degenerate_flag", "text"):
        "345dba08cac95a608cb3ef606e753effe61a4bfbc1de72c374291b8bb387a7c1",
    ("cells", "degenerate_flag", "machine"):
        "8c41658aa020ed260c824f764e3dbce77b1db1d9daf1d4d9604b2d1242d0835e",
    ("poincare", "degenerate_flag", "text"):
        "6e5ccb0127e4c2468593dccc6090afd96c232f3700ad55834f17b27865a69291",
    ("poincare", "degenerate_flag", "machine"):
        "fb5b957f58caa59e227bd57a6a5a8e67327f53433a39c9c7b9ab114996c3445f",
    ("strata", "degenerate_flag", "text"):
        "f37f91113f03d52e1fbb62213b87f3a30f2609345eb2f255cd2fac532458fcb0",
    ("strata", "degenerate_flag", "machine"):
        "51b9ae37067b09d3d5a28881f53029f49ce02dfc7293a56eacd0fc6505c613e9",
    ("cells", "most_flat", "text"):
        "007cd076a60aef904ce1a5fb094bb6ea8fa10ea8f88bf21985d89bc85bea59fb",
    ("cells", "most_flat", "machine"):
        "d0487666c20ccdc7cade85d217bd3844c1b1b13c724d10da3c07f83f3e5387d5",
    ("poincare", "most_flat", "text"):
        "54662c5f10184000ed0cbf15705905412ea1e59f792aacd9a7510caf13144c64",
    ("poincare", "most_flat", "machine"):
        "a5a661556279041da523b45f71da1722c3875a3b341b7ce72ece4a9514651139",
    ("strata", "most_flat", "text"):
        "06a37c8869d39df1890a0a598147b28ee160ad9420bc7ec81fe76c400c9105f1",
    ("strata", "most_flat", "machine"):
        "ee8107ecf3a54a41889a761067904ab8517cab0637db8456874686e04cdfd1ea",
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("sub", ["cells", "poincare", "strata"])
@pytest.mark.parametrize("name,family", [("degenerate_flag", degenerate_flag_dec),
                                         ("most_flat", most_flat_dec)])
def test_fixed_point_output_bytes_are_pinned(sub, name, family, fmt):
    code, text = run([sub, "--intervals", format_intervals(family(4)), "--n", "4",
                      "--e", "1,2,3,4", "--format", fmt])
    assert code == 0 and _sha256(text) == FIXED_POINT_OUTPUT_DIGESTS[(sub, name, fmt)]


# sha256 of the output at e = (2, ..., 2) of the Poincaré polynomial and the
# strata folded from the full list of fixed points, and of that list on
# degenerate_flag_dec(6): the row sweep must not move a byte
LARGE_FIXED_POINT_OUTPUT_DIGESTS = {
    ("poincare", "most_flat", 5, "text"):
        "faea4cc25216263bf859f7620456da84bca94515791751d33bf0c6b89acd7dba",
    ("poincare", "most_flat", 5, "machine"):
        "834a48a7b899107064d3e0bd5fc790d95fef190dfdd9594ac4d532e1caee0148",
    ("strata", "most_flat", 5, "text"):
        "f03392c51e2934a67e2dbf335d3a1d9f896fd94e1a34f04c4111f14e6862a240",
    ("strata", "most_flat", 5, "machine"):
        "bf61bb907ddc50d40f16cb191ec101c1d71dc61e8d5d2d612985eb47b00cd092",
    ("poincare", "degenerate_flag", 6, "text"):
        "2556dd5b5367eacbf7e547fb27103c696c63951f83d878011b48630bfa2bf187",
    ("poincare", "degenerate_flag", 6, "machine"):
        "8f017c1f6bbf39f98c3fefdd42bf7686db479676816a2637fe942d0d51d58fb3",
    ("strata", "degenerate_flag", 6, "text"):
        "ca225fac8539503f7f7a417d584920eed5cc4f28c9ca728606351b9617378c1a",
    ("strata", "degenerate_flag", 6, "machine"):
        "5aa4246ad460cad9e83a67db109fb0ebc819a43bcd68207c15625f898fe8e180",
    ("cells", "degenerate_flag", 6, "text"):
        "c3020850be1df46a56e58cb3c8da203524de3d7e8c6d337abf424fd3c05abd1e",
    ("cells", "degenerate_flag", 6, "machine"):
        "5c45bd6ecaf756b00352f50ccd102ad27e5355a295ba619c76ecfa0ee0c75256",
    ("cells", "most_flat", 5, "text"):
        "f1f48b1a3513b5f1c29f7decc2db1410bffcb54210f2d2d019d99f8114844e77",
    ("cells", "most_flat", 5, "machine"):
        "7e05b2462d18d9514d230543ad3383027ebe3dc59bdfea4eb71f7df29b4924ef",
    ("poincare", "most_flat", 6, "text"):
        "535945762b00d9c604bd0d7cabd971db41f08d6776f08432e7966b5fc0f9e625",
    ("poincare", "most_flat", 6, "machine"):
        "9a8a22f230a9d394bb298f2b2d6bb0e7d45d26e7d034cd5ed3add47d95574735",
    ("strata", "most_flat", 6, "text"):
        "511d6ed228bde9ea056c7ab37fed09cf863604b8e54dac8cb85b689ffe535b85",
    ("strata", "most_flat", 6, "machine"):
        "070382abf1df3cab92fab502005b859a127ea40c173d2e6532cd48f1f7bd9ef4",
}
LARGE_FIXED_POINT_FAMILIES = {"most_flat": most_flat_dec, "degenerate_flag": degenerate_flag_dec}


@pytest.mark.parametrize("sub,name,n,fmt", sorted(LARGE_FIXED_POINT_OUTPUT_DIGESTS))
def test_fixed_point_output_bytes_at_e_2_are_pinned(sub, name, n, fmt):
    dec = LARGE_FIXED_POINT_FAMILIES[name](n)
    code, text = run([sub, "--intervals", format_intervals(dec), "--n", str(n),
                      "--e", ",".join(["2"] * n), "--format", fmt])
    assert code == 0 and _sha256(text) == LARGE_FIXED_POINT_OUTPUT_DIGESTS[(sub, name, n, fmt)]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_verify_mult_output_bytes_are_pinned(tmp_path, fmt):
    a3 = {"vertices": 3, "arrows": [[1, 2], [2, 3]], "field": "Q"}
    xp, sp = tmp_path / "x.rep", tmp_path / "s.rep"
    xp.write_text(json.dumps(dict(a3, intervals="U[1,3] + U[3,3]")))
    sp.write_text(json.dumps(dict(a3, intervals="U[1,2]")))
    code, text = run(["verify-mult", "--x", str(xp), "--s", str(sp), "--format", fmt])
    key = ("verify-mult", "U[1,3] + U[3,3] by U[1,2]", fmt)
    assert code == 0 and _sha256(text) == POLYNOMIAL_OUTPUT_DIGESTS[key]


def _outputs(text, fmt):
    """The outputs of a document: machine format parsed whole, text format
    line by line after the subcommand line."""
    if fmt == "machine":
        return json.loads(text)["outputs"]
    return {k: json.loads(v) for k, _, v in (line.partition(": ")
                                              for line in text.splitlines()[1:])}


def _term_list(poly):
    return [[list(e), c] for e, c in poly.sorted_terms()]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_term_lists_read_back_as_the_sorted_terms(tmp_path, fmt):
    """fpoly, cc and verify-mult write each term list from the JSON that
    ``render`` wrote; parsed back it is ``sorted_terms()``, with negative
    exponents (cc) and an empty residual."""
    kronecker = tmp_path / "kronecker.rep"
    kronecker.write_text(json.dumps(COUNT_STRATEGY_DOCUMENTS["kronecker (1,2)"]))
    mods = [(["--intervals", "U[1,2] + U[2,3]^2 + U[3,3]", "--n", "3"],
             IntervalDecomposition(3, {(1, 2): 1, (2, 3): 2, (3, 3): 1}), "cells"),
            (["--rep", str(kronecker)], parse_rep_document(kronecker.read_text())[0], "count")]
    for argv, m, strategy in mods:
        for sub, key, build in (("fpoly", "f_polynomial", cluster.f_polynomial),
                                ("cc", "cluster_character", cluster.cluster_character)):
            code, text = run([sub, *argv, "--strategy", strategy, "--format", fmt])
            assert code == 0
            assert _outputs(text, fmt)[key] == _term_list(build(m, strategy=strategy))
    a3 = {"vertices": 3, "arrows": [[1, 2], [2, 3]], "field": "Q"}
    for x, s_ in (("U[1,3] + U[3,3]", "U[1,2]"), ("U[3,3]", "U[2,2]")):
        xp, sp = tmp_path / "x.rep", tmp_path / "s.rep"
        xp.write_text(json.dumps(dict(a3, intervals=x)))
        sp.write_text(json.dumps(dict(a3, intervals=s_)))
        code, text = run(["verify-mult", "--x", str(xp), "--s", str(sp), "--format", fmt])
        out = _outputs(text, fmt)
        report = cluster.verify_multiplication(cluster.make_generating(
            parse_rep_document(sp.read_text())[0], parse_rep_document(xp.read_text())[0]))
        assert code == 0 and out["holds"] is True and out["residual"] == []
        assert (out["lhs"], out["rhs"]) == (_term_list(report.lhs), _term_list(report.rhs))


# sha256 of the output of the count strategy with its F-polynomial stored as a
# tuple-keyed dict and tuple-sorted, and of the cluster character rebuilt from
# it tuple by tuple: the packed keys and their ring-map image must not move a
# byte
COUNT_STRATEGY_DOCUMENTS = {
    "kronecker (1,2)": {"vertices": 2, "arrows": [[1, 2], [1, 2]], "field": "Q",
                        "dims": [1, 2], "matrices": {"0": [[1], [0]], "1": [[0], [1]]}},
    "D4 (1,1,1,2)": {"vertices": 4, "arrows": [[1, 4], [2, 4], [3, 4]], "field": "Q",
                     "dims": [1, 1, 1, 2],
                     "matrices": {"0": [[1], [0]], "1": [[0], [1]], "2": [[1], [1]]}},
}
COUNT_STRATEGY_OUTPUT_DIGESTS = {
    ("fpoly", "kronecker (1,2)", "text"):
        "faa0f57f549aeeb33a4fb0530b4b143fad71818a3ee24bf13d1b458f54de4178",
    ("fpoly", "kronecker (1,2)", "machine"):
        "c795ebbb6626c847bfc421268e404ffedf4a4be2c0a1e089e12885e1a48ca3a9",
    ("cc", "kronecker (1,2)", "text"):
        "092964e67712781bd76f107f60dcc449f064791eb3533e73410d0f22ba67d04f",
    ("cc", "kronecker (1,2)", "machine"):
        "3f68f29a601de594abb526d854de1facf052c7a57c0076bfefd79ff839475fa8",
    ("fpoly", "D4 (1,1,1,2)", "text"):
        "72944cf110162c832ae2292747fbfe772393b55d87a778d2ff900770c856c0b6",
    ("fpoly", "D4 (1,1,1,2)", "machine"):
        "04a5c765e207a7c6b5b9cf1b92111eee2d48bbc04ac1bd9dc9326f4f8bb4a4f6",
    ("cc", "D4 (1,1,1,2)", "text"):
        "5cbe52cb5b818596854f5d984e40df5bfb31f34d99fa75349baee24f9390f18b",
    ("cc", "D4 (1,1,1,2)", "machine"):
        "86b13a9f54a3777c1afd9716e0a456f64b034d55e7008f11f3e2c9dcd32ac5e4",
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("sub", ["fpoly", "cc"])
@pytest.mark.parametrize("name", COUNT_STRATEGY_DOCUMENTS)
def test_count_strategy_output_bytes_are_pinned(tmp_path, sub, name, fmt):
    path = tmp_path / "m.rep"
    path.write_text(json.dumps(COUNT_STRATEGY_DOCUMENTS[name]))
    code, text = run([sub, "--rep", str(path), "--format", fmt])
    assert code == 0 and _sha256(text) == COUNT_STRATEGY_OUTPUT_DIGESTS[(sub, name, fmt)]


# sha256 of the flags benchmark's poly and fpoly --strategy count output as
# it was with the Vandermonde system solved over Q, every batch of one pivot
# pattern and M reduced again for every e: the interpolation, the batching
# and the shared reductions must not move a byte.  The poly digests were
# re-recorded when poly stopped writing a copy of its coefficients as
# "betti_numbers"; nothing else in those documents moved.
FLAG_FAMILIES = {"flag_dec": flag_dec, "degenerate_flag_dec": degenerate_flag_dec,
                 "most_flat_dec": most_flat_dec}
COUNTING_OUTPUT_DIGESTS = {
    ("poly", "flag_dec", (0, 1, 2)):
        "a8745b056bf5b80f53184d0bbd1f8a30bffb34a12952ce62771d9d1949f5d92f",
    ("poly", "flag_dec", (0, 1, 1)):
        "11016a32a3b8cf030ac2feb100f35e67f5dd7090de10190d3d5b66e87f065363",
    ("poly", "degenerate_flag_dec", (0, 1, 2)):
        "d4badecbdb2b6faeb9cc1b64e165ae9a4c87304e87a0a40ea6069613522e5e15",
    ("poly", "degenerate_flag_dec", (0, 1, 1)):
        "b112eed3e27372d569b9c95d5750a788ca6bbba795823616da6caf5cb1fc15bb",
    ("poly", "most_flat_dec", (0, 1, 2)):
        "5a9cb13d1d29b2a47a53ff5c13a357a3f26d6a5a32b89bfbd4420a419397bb80",
    ("poly", "most_flat_dec", (0, 1, 1)):
        "72067f61a4e86785d3c7f2af09d6f0d2d9b7467ac8ee8ab1663f7803cd8bb343",
    ("fpoly", "flag_dec", None):
        "672ceb2f9d0830d8ced4b384e062840ac73ed3a29f8c6c36548e43ea7215e6da",
    ("fpoly", "most_flat_dec", None):
        "9774a8892231ee261d80f49c9a2f217bdb717d4a52e65118631871962ac2bf12",
}


@pytest.mark.parametrize("sub, family, e", COUNTING_OUTPUT_DIGESTS)
def test_counting_output_bytes_are_pinned(sub, family, e):
    if sub == "poly":
        dec = FLAG_FAMILIES[family](3)
        argv = ["poly", "--intervals", format_intervals(dec), "--n", "3",
                "--e", ",".join(map(str, e))]
    else:
        dec = FLAG_FAMILIES[family](2)
        argv = ["fpoly", "--strategy", "count", "--intervals", format_intervals(dec),
                "--n", "2"]
    code, text = run(argv + ["--format", "machine"])
    assert code == 0 and _sha256(text) == COUNTING_OUTPUT_DIGESTS[(sub, family, e)]


# sha256 of the hom/ext output with the defect map written densely and the
# interval modules built as direct sums of their summands: each family at
# n = 6 against the next one, as the benchmark pairs them
HOM_EXT_FAMILIES = (("flag", flag_dec), ("path", path_algebra_dec),
                    ("injective", injective_cogenerator_dec),
                    ("degenerate_flag", degenerate_flag_dec), ("most_flat", most_flat_dec))
HOM_EXT_OUTPUT_DIGESTS = {
    ("hom", "flag", "Q"):
        "3738a596e99dcff1ee535f5cb737a462e30c46e5ed0b328c907281258f75d9a4",
    ("ext", "flag", "Q"):
        "5893c71b6d27bda9bb441f4f32bc360fc55b5d16f398b7e2a88d8bd3ed56912d",
    ("hom", "flag", "Fp:7"):
        "657d073a42424e04468c9f24f8086adeb22af73f5335f0f65e03a0ae71427538",
    ("ext", "flag", "Fp:7"):
        "6e4f2df6986db526f5d5ef293632384c5fca58d2810ea3682c09c2fd7ac42010",
    ("hom", "path", "Q"):
        "e6032ad277d7b2d7c0bf1962ce67609d452bd8b50b2b5d6314f05a9342a3fb86",
    ("ext", "path", "Q"):
        "a4c8a6ee93aa1c4527e3f4ade59aa4740feac0ec25c7da16314807cd36412e18",
    ("hom", "path", "Fp:7"):
        "0c6db037776a9c16c4a27ca666fee656caba56b19e4cd0e34973e160ac717c1d",
    ("ext", "path", "Fp:7"):
        "60b3798b2edb677d8c39ebdd3601e9091d2c9a33d32caae7879dae511a71649a",
    ("hom", "injective", "Q"):
        "d94f0e32b8e072004a1b5febfd163065dd0cd414f7a5d05a690c58d45b01569e",
    ("ext", "injective", "Q"):
        "76fa59286c4069abe05711d79a0a69912004322a2fee98217fefff40b628d9e6",
    ("hom", "injective", "Fp:7"):
        "f815d73e6fe64caad0ff096d10ea47467c8d66b9cb8cf62ce9b62d9181c263b1",
    ("ext", "injective", "Fp:7"):
        "afa84b163ae23d10e2e6c355825dc9bbc574933ff8febe4a634c6157cee602ba",
    ("hom", "degenerate_flag", "Q"):
        "5ec2921cdaaa7e0a3a687556ae8bc2362d34dd5788a9a1808aebf9818c75d995",
    ("ext", "degenerate_flag", "Q"):
        "8379bc98082004d1fce3ef9a8360226aca0a482d219a5f22a937108875be7b77",
    ("hom", "degenerate_flag", "Fp:7"):
        "fd01e429ed73d2eed4176172edfb4f314a281b15c5a5bb32540332af7e23339e",
    ("ext", "degenerate_flag", "Fp:7"):
        "b4f2f3a7fbb465f6e3d6f052b5aa14e319c998563dc082278446f8bd95684f96",
    ("hom", "most_flat", "Q"):
        "df6fd26101056994131d5a9211a98a191757f6dcf6784e7185d900e4e4516772",
    ("ext", "most_flat", "Q"):
        "b025078dd6e91cd13962889fa61e6a811a584802da283440ed3217c07b92d55a",
    ("hom", "most_flat", "Fp:7"):
        "6aa46a9345c2716aac4e92e6fac78e005efd8da281a7a7ce54bc2041b243feda",
    ("ext", "most_flat", "Fp:7"):
        "013969141b9177ccd3af91fe527764e8522558f725d341037b8cf5ac96be3468",
}


@pytest.mark.parametrize("field", ["Q", "Fp:7"])
@pytest.mark.parametrize("k", range(len(HOM_EXT_FAMILIES)))
def test_hom_ext_output_bytes_are_pinned(tmp_path, k, field):
    paths = []
    for name, family in (HOM_EXT_FAMILIES[k], HOM_EXT_FAMILIES[(k + 1) % len(HOM_EXT_FAMILIES)]):
        path = tmp_path / f"{name}.rep"
        path.write_text(json.dumps({"vertices": 6, "field": field,
                                    "arrows": [[v, v + 1] for v in range(1, 6)],
                                    "intervals": format_intervals(family(6))}))
        paths.append(str(path))
    for sub in ("hom", "ext"):
        code, text = run([sub, "--rep", paths[0], "--rep2", paths[1], "--format", "machine"])
        key = (sub, HOM_EXT_FAMILIES[k][0], field)
        assert code == 0 and _sha256(text) == HOM_EXT_OUTPUT_DIGESTS[key]


def _matrix_document(dec):
    """The representation file of dec with explicit matrices, no intervals."""
    m = dec.to_representation(QQ)
    return {"vertices": dec.n, "arrows": [list(a) for a in m.quiver.arrows], "field": "Q",
            "dims": list(m.dims),
            "matrices": {str(a): [[int(x) for x in row] for row in mat]
                         for a, mat in enumerate(m.matrices) if mat}}


PARITY_FIXTURES = [degenerate_flag_dec(3), most_flat_dec(3), flag_dec(2),
                   IntervalDecomposition(4, {(1, 4): 2, (2, 3): 1, (3, 3): 1, (1, 2): 1}),
                   random_decomposition(4, 41)]


@pytest.mark.parametrize("dec", PARITY_FIXTURES, ids=format_intervals)
def test_intervals_and_matrices_give_the_same_answers(tmp_path, dec):
    """--intervals is read as the parsed decomposition, --rep is decomposed
    from its matrices: the outputs and provenance must not tell them apart."""
    path = tmp_path / "m.rep"
    path.write_text(json.dumps(_matrix_document(dec)))
    semisimple = tmp_path / "semisimple.rep"
    semisimple.write_text(json.dumps(_matrix_document(IntervalDecomposition(
        dec.n, {(v, v): x for v, x in enumerate(dec.dim_vector(), 1)}))))
    e = ",".join(str(x // 2) for x in dec.dim_vector())
    runs = [["cells", "--e", e], ["poincare", "--e", e], ["strata", "--e", e],
            ["fpoly"], ["cc"], ["fpoly", "--strategy", "cells"], ["catenoid"],
            ["deg-compare", "--rep2", str(semisimple)]]
    for sub in runs:
        answers = []
        for module in (["--intervals", format_intervals(dec), "--n", str(dec.n)],
                       ["--rep", str(path)]):
            code, text = run([*sub, *module, "--format", "machine"])
            assert code == 0, text
            doc = json.loads(text)
            answers.append((doc["outputs"], doc["provenance"]))
        assert answers[0] == answers[1], sub


@pytest.mark.parametrize("sub", ["decompose", "fpoly", "cc", "gvector", "catenoid",
                                 "flat-locus", "hom", "deg-compare", "euler", "count",
                                 "poly", "cells", "poincare", "strata"])
def test_intervals_with_n_0_answer_as_a_0_vertex_file(tmp_path, sub):
    """--n 0 is given, not missing, and --e '' is the empty dimension vector:
    the empty module of A_0 answers as the rep file with no vertices does."""
    path = tmp_path / "v0.rep"
    path.write_text(json.dumps({"vertices": 0, "arrows": [], "field": "Q",
                                "dims": [], "matrices": {}}))
    extra = {"hom": ["--rep2", str(path)], "deg-compare": ["--rep2", str(path)],
             "euler": ["--e", ""], "count": ["--e", "", "--p", "2"], "poly": ["--e", ""],
             "cells": ["--e", ""], "poincare": ["--e", ""], "strata": ["--e", ""]}
    answers = []
    for module in (["--intervals", "0", "--n", "0"], ["--rep", str(path)]):
        code, text = run([sub, *module, *extra.get(sub, []), "--format", "machine"])
        assert code == 0, text
        doc = json.loads(text)
        answers.append((doc["outputs"], doc["provenance"]))
    assert answers[0] == answers[1]
    if sub == "count":
        assert answers[0][0] == {"count": 1}  # Gr_0(0) is one point
    assert run(["decompose", "--intervals", "U[1,1]", "--n", "0"]) == \
        (2, "error: bad interval (1,1) for n=0\n")
    assert run(["count", "--intervals", "U[1,1]", "--n", "1", "--e", "", "--p", "2"]) == \
        (2, "error: dimension vector length 0 != 1\n")


def test_deg_compare_subcommand(tmp_path):
    a = {"vertices": 2, "arrows": [[1, 2]], "field": "Q", "intervals": "U[1,2]^3"}
    b = {"vertices": 2, "arrows": [[1, 2]], "field": "Q",
         "intervals": "U[1,2]^2 + U[1,1] + U[2,2]"}
    pa, pb = tmp_path / "a.rep", tmp_path / "b.rep"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code, text = run(["deg-compare", "--rep", str(pa), "--rep2", str(pb),
                      "--format", "machine"])
    assert code == 0
    out = json.loads(text)["outputs"]
    assert out["ranks_m_deg_n"] is True and out["ranks_n_deg_m"] is False
    assert out["hom_m_deg_n"] is True and out["hom_n_deg_m"] is False


def test_remaining_subcommands(ex4_file):
    code, text = run(["euler", "--rep", ex4_file, "--e", "1,1"])
    assert code == 0 and "euler_e_dim: 2" in text and "euler_e_complement: 1" in text
    code, text = run(["cells", "--intervals", "U[1,1]^4", "--n", "1",
                      "--e", "2", "--format", "machine"])
    assert code == 0
    cells = json.loads(text)["outputs"]["cells"]
    assert sorted(c["dim"] for c in cells) == [0, 1, 2, 2, 3, 4]
    code, text = run(["poincare", "--rep", ex4_file, "--e", "1,1",
                      "--format", "machine"])
    assert code == 0
    out = json.loads(text)["outputs"]
    assert out["coefficients"] == [1, 2] and out["euler_characteristic"] == 3
    code, text = run(["strata", "--rep", ex4_file, "--e", "1,1",
                      "--format", "machine"])
    assert code == 0
    assert len(json.loads(text)["outputs"]["strata"]) == 2
    code, text = run(["gvector", "--rep", ex4_file, "--format", "machine"])
    assert code == 0 and json.loads(text)["outputs"]["g_vector"] == [0, -2]
    code, text = run(["fpoly", "--rep", ex4_file, "--format", "machine"])
    assert code == 0
    fterms = json.loads(text)["outputs"]["f_polynomial"]
    assert [[0, 0], 1] in fterms
    code, text = run(["cc", "--rep", ex4_file, "--format", "machine"])
    assert code == 0
    doc = json.loads(text)
    assert doc["provenance"]["engine"] == "cells"
    assert doc["outputs"]["cluster_character"]


def test_ar_quiver_subcommand():
    code, text = run(["ar-quiver", "--n", "4", "--format", "machine"])
    assert code == 0
    out = json.loads(text)["outputs"]
    assert len(out["vertices"]) == 10


def test_demo_elliptic_subcommand():
    code, text = run(["demo-elliptic", "--p", "2", "--format", "machine"])
    assert code == 0
    out = json.loads(text)["outputs"]
    assert out["difference"] == 0 and out["curve_points"] == 3
