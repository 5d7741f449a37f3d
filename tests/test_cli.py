import importlib
import json
import os
import runpy
import subprocess
import sys
import time

import pytest

import tametransfer
from tametransfer import char, cli, derive_tower, field_level, level, numth, orbit_of, regularize
from tametransfer.cli import main, run
from tametransfer.jsonio import lift_to_json, orbit_to_json
from tametransfer.regularize import cyclotomic_value


def ok_payload(argv):
    result = run(argv)
    assert result.status == "ok", result.message
    assert result.exit_code == 0
    return result.payload


def test_zsigmondy_success():
    payload = ok_payload(["zsigmondy", "--b", "2", "--r", "14"])
    assert payload["ell"] == "43"
    assert payload["certificate"] == {
        "version": 2, "b": "2", "r": 14, "ell": "43", "order_checks": [[2, "42"], [7, "4"]],
    }


def test_chain_command_with_bare_modulus():
    payload = ok_payload(["chain", "--M", "24", "--from", "1", "--to", "5"])
    assert payload["primes"] == ["2", "3"]
    assert [s["ell"] for s in payload["steps"]] == ["2", "3"]
    assert payload["steps"][0]["after"]["rep"] == "13"


def test_chain_command_with_level():
    payload = ok_payload(["chain", "--Q", "5", "--nprime", "2", "--from", "1", "--to", "5"])
    assert payload["M"] == "24"
    assert payload["primes"] == ["2", "3"]


def test_chain_command_requires_some_level():
    result = run(["chain", "--from", "1", "--to", "5"])
    assert result.exit_code == 1
    assert result.error_kind == "UsageError"


@pytest.mark.parametrize("M", [0, -5])
def test_chain_refuses_a_modulus_below_one_by_its_flag(M):
    result = run(["chain", "--M", str(M), "--from", "0", "--to", "0"])
    assert result.exit_code == 2
    assert result.error_kind == "OutOfRange"
    assert result.message == f"--M must be at least 1, got {M}"


@pytest.mark.parametrize("shape, nprime, ell", [("2,2,1,1,10,1", 10, "43"), ("3,9,1,1,15,1", 15, "43"),
                                                ("11,11,1,1,20,1", 20, "29")])
def test_transfer_descent_at_nprime_10_to_20(shape, nprime, ell):
    # the blow-up level has degree 7n' >= 70, and an M of at most 485 bits
    payload = ok_payload(["transfer-descent", "--shape", shape, "--alpha", "1"])
    assert payload["agrees_with_rectifier"] is True
    assert payload["from"]["size"] == nprime
    assert payload["lift"]["beta"]["level_deg"] == 7 * nprime
    assert payload["lift"]["ell"] == ell
    params = derive_tower(*map(int, shape.split(",")))
    alpha = char(level(params, params.n_prime), 1)
    assert payload["lift"] == lift_to_json(regularize(alpha, params))


def test_green_command():
    payload = ok_payload(["green", "--d", "2", "--u", "2", "--alpha0", "1", "--g", "1"])
    assert payload["terms"] == [["1", -1], ["2", -1]]
    assert abs(payload["numeric"][0] - 1) < 1e-12
    assert abs(payload["numeric"][1]) < 1e-12


def test_green_builds_the_level_before_the_prime_power_test(monkeypatch, capsys):
    def no_test(d):
        pytest.fail("is_prime_power ran before the level guard")

    monkeypatch.setattr(cli, "is_prime_power", no_test)
    start = time.perf_counter()
    assert main(["green", "--d", str(2**4423 - 1), "--u", "1", "--alpha0", "1", "--g", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert one_document(capsys)["error_kind"] == "LevelGuardExceeded"


@pytest.mark.parametrize("d, u", [(2**521 - 1, 2), (2, 1100)])
def test_green_numeric_value_beyond_float_range(d, u):
    # M = d**u - 1 is over 2**1024, so e / M cannot be taken in floats; the
    # value is checked against the sum of the roots of unity in 400 digits
    import mpmath

    payload = ok_payload(["green", "--d", str(d), "--u", str(u), "--alpha0", "1", "--g", "1"])
    M = d**u - 1
    assert payload["modulus"] == str(M) and len(payload["terms"]) == u
    with mpmath.workdps(400):
        want = sum(c * mpmath.expjpi(2 * mpmath.mpf(int(e)) / M) for e, c in payload["terms"])
        assert abs(complex(*payload["numeric"]) - complex(want)) < 1e-9


def test_regular_part_refuses_an_ell_over_the_guard_before_testing_it(monkeypatch, capsys):
    def no_test(n):
        pytest.fail("is_prime ran on an ell over the guard")

    monkeypatch.setattr(importlib.import_module("tametransfer.characters"), "is_prime", no_test)
    start = time.perf_counter()
    assert main(["regular-part", "--Q", "2", "--nprime", "3", "--a", "1", "--ell", str(2**11213 - 1)]) == 2
    assert time.perf_counter() - start < 1.0
    doc = one_document(capsys)
    assert doc["error_kind"] == "LevelGuardExceeded"
    assert doc["message"] == "ell has 11213 bits; no level's M has more than 1500"


def test_table_command():
    payload = ok_payload(["table", "--shape", "3,3,2,1,1,4"])
    assert payload["mu_exp"] == "4"
    reps = [p["from"]["rep"] for p in payload["pairs"]]
    assert reps == sorted(reps)
    mapping = {p["from"]["rep"]: p["to"]["rep"] for p in payload["pairs"]}
    assert mapping["0"] == "4" and mapping["1"] == "5"


@pytest.mark.parametrize(
    "shape, Q, nprime, mu",
    [("3,3,1,1,3,2", 3, 6, 0), ("3,9,2,1,1,4", 9, 2, 40)],
)
def test_table_images_are_the_walked_twists(shape, Q, nprime, mu):
    payload = ok_payload(["table", "--shape", shape])
    assert payload["mu_exp"] == str(mu)
    lvl = field_level(Q, nprime)
    assert len(payload["pairs"]) > 1
    for pair in payload["pairs"]:
        walked = orbit_of(char(lvl, int(pair["from"]["rep"]) + mu))
        assert pair["to"] == orbit_to_json(walked)


def test_usage_error_lists_flags():
    result = run(["orbit", "--Q", "2"])
    assert result.exit_code == 1
    assert result.error_kind == "UsageError"
    assert "--nprime" in result.message

    unknown = run(["frobnicate"])
    assert unknown.exit_code == 1


def test_domain_error_kind_is_verbatim():
    result = run(["tower", "--shape", "4,4,1,1,1,2"])
    assert result.exit_code == 2
    assert result.error_kind == "NotPrime"

    # q = 1 admits no level; a composite p above q is no prime power's base
    assert run(["tower", "--shape", "2,1,1,1,1,1"]).error_kind == "OutOfRange"
    assert run(["tower", "--shape", "4,3,1,1,1,1"]).error_kind == "NotPrimePower"

    result = run(["tower", "--shape", "2,2,3,1,1,2"])
    assert result.error_kind == "DegreeMismatch"


def test_tower_refuses_a_strong_pseudoprime_to_the_twelve_bases_as_p():
    psi_12 = 318665857834031151167461  # 399165290221 * 798330580441
    result = run(["tower", "--shape", f"{psi_12},{psi_12},1,1,1,1"])
    assert (result.exit_code, result.error_kind) == (2, "NotPrime")


def test_flags_override_shape():
    payload = ok_payload(["tower", "--shape", "3,3,2,1,1,4"])
    assert payload["d"] == 4
    override = ok_payload(["tower", "--shape", "3,3,2,1,1,4", "--d", "2", "--eEF", "1"])
    assert override["d"] == 2
    assert override["nprime"] == 2


def test_config_is_not_an_option():
    result = run(["tower", "--shape", "3,3,2,1,1,4", "--config", "x"])
    assert result.exit_code == 1
    assert result.error_kind == "UsageError"


def one_document(capsys) -> dict:
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_module_entry_point_prints_one_document(monkeypatch, capsys):
    # `python -m tametransfer`, in this process
    monkeypatch.setattr(sys, "argv", ["tametransfer", "orbit", "--Q", "2", "--nprime", "3", "--a", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tametransfer", run_name="__main__")
    assert exc.value.code == 0
    assert one_document(capsys)["payload"]["members"] == ["1", "2", "4"]


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_tower", boom)
    assert main(["tower", "--shape", "3,3,2,1,1,4"]) == 3
    doc = one_document(capsys)
    assert doc == {"status": "error", "error_kind": "InternalError", "message": "RuntimeError: boom"}


def test_zsigmondy_3_743_answers_promptly(capsys):
    # b**r - 1 has 1178 bits; its primitive prime 1487 = 2 * 743 + 1 is found
    # by trial division, with no float root taken on the way
    start = time.perf_counter()
    assert main(["zsigmondy", "--b", "3", "--r", "743"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = one_document(capsys)
    assert doc["payload"]["ell"] == "1487"
    assert doc["payload"]["certificate"]["order_checks"] == [[743, "3"]]


def test_zsigmondy_10_67_answers_promptly(capsys):
    # the primitive part of 10**67 - 1 is R67 / 9's cofactor of two large
    # primes and 493121 = 1 + 3680 * 134, a trial candidate
    start = time.perf_counter()
    assert main(["zsigmondy", "--b", "10", "--r", "67"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = one_document(capsys)
    assert doc["payload"]["ell"] == "493121"
    assert doc["payload"]["certificate"]["order_checks"] == [[67, "10"]]


def test_chain_on_the_square_of_a_huge_prime(capsys):
    # factorize takes an exact root of (2**521 - 1)**2, not a float one
    start = time.perf_counter()
    assert main(["chain", "--M", str((2**521 - 1) ** 2), "--from", "1", "--to", "5"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = one_document(capsys)
    assert doc["payload"]["primes"] == [str(2**521 - 1)]


@pytest.mark.parametrize("Q, nprime", [(97561, 11), (10007, 13)])
def test_chain_on_levels_with_large_prime_factors_answers_promptly(Q, nprime, capsys):
    # M = Q**nprime - 1 has three prime factors above 10**5, of up to 80 bits
    start = time.perf_counter()
    assert main(["chain", "--Q", str(Q), "--nprime", str(nprime), "--from", "1", "--to", "5"]) == 0
    assert time.perf_counter() - start < 5.0
    doc = one_document(capsys)
    assert doc["payload"]["M"] == str(Q**nprime - 1)


def test_chain_on_a_modulus_over_the_guard_ends_at_once(capsys):
    # deg = 1 is no bound: M itself has 3002 bits
    start = time.perf_counter()
    assert main(["chain", "--M", str(2**3001 + 1905), "--from", "0", "--to", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    doc = one_document(capsys)
    assert doc["error_kind"] == "LevelGuardExceeded"
    assert doc["message"].endswith("deg=1: M = Q**deg - 1 has more than 1500 bits")


@pytest.mark.parametrize("command", ["tower", "rectifier"])
@pytest.mark.parametrize("f_ef", [20000, 10**12])
def test_shape_with_q_to_the_f_ef_over_the_guard_ends_at_once(capsys, command, f_ef):
    # Q - 1 = 2**f_ef - 1 has more than 1500 bits, so no level over Q is admitted
    start = time.perf_counter()
    assert main([command, "--shape", f"2,2,1,{f_ef},{f_ef},1"]) == 2
    assert time.perf_counter() - start < 1.0
    doc = one_document(capsys)
    assert doc["error_kind"] == "LevelGuardExceeded"
    assert doc["message"] == f"level Q=2, deg={f_ef}: M = Q**deg - 1 has more than 1500 bits"


def test_shape_guard_is_the_bits_of_q_to_the_f_ef_minus_one():
    # 2**1500 - 1 and 3**946 - 1 have 1500 bits; 3**947 - 1 has 1501
    assert ok_payload(["tower", "--shape", "2,2,1,1500,1500,1"])["Q"] == str(2**1500)
    assert ok_payload(["tower", "--shape", "3,3,1,946,946,1"])["Q"] == str(3**946)
    result = run(["tower", "--shape", "3,3,1,947,947,1"])
    assert (result.exit_code, result.error_kind) == (2, "LevelGuardExceeded")
    assert result.message == "level Q=3, deg=947: M = Q**deg - 1 has more than 1500 bits"


@pytest.mark.parametrize("command", ["tower", "rectifier"])
@pytest.mark.parametrize("k", [11213, 4423])
def test_shape_with_p_above_q_ends_before_the_primality_test(capsys, command, k):
    # q must be a power of p, so p = 2**k - 1 > q is refused without testing p
    start = time.perf_counter()
    assert main([command, "--shape", f"{2**k - 1},2,1,1,1,1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert one_document(capsys)["error_kind"] == "NotPrimePower"


_WILD_SHAPE = ",".join(map(str, [2**1279 - 1] * 3 + [1, 1, 2**1279 - 1]))   # p divides e(E/F) = p
_WILD_MESSAGE = "ramification e(E/F)={0} is divisible by p={0}".format("10407932194664399081...(386 digits)")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tower", "--shape", f"{2**11213 - 1},2,1,1,1,1"],
         "q=2 is not a power of p=28141120136973731333...(3376 digits)"),
        (["green", "--d", str(2**4423 - 1), "--u", "1", "--alpha0", "1", "--g", "1"],
         "level Q=28554254222827961390...(1332 digits), deg=1: M = Q**deg - 1 has more than 1500 bits"),
        (["chain", "--M", str(2**3001 + 1905), "--from", "0", "--to", "1"],
         "level Q=24604638443222343538...(904 digits), deg=1: M = Q**deg - 1 has more than 1500 bits"),
        (["tower", "--shape", f"3,3,{10**3000},1,1,1"],
         "degree g=10000000000000000000...(3001 digits) does not divide n=1"),
        (["chain", "--M", "-" + "9" * 4000, "--from", "0", "--to", "1"],
         "--M must be at least 1, got -9999999999999999999...(4000 digits)"),
        (["zsigmondy", "--b", "-" + "9" * 4000, "--r", "5"],
         "need b, r >= 2, got b=-9999999999999999999...(4000 digits), r=5"),
        (["pair", "--shape", "3,3,2,1,1,4", "--f", "4" * 4000, "--beta", "1"],
         "pair degree f=44444444444444444444...(4000 digits) must divide n'=2"),
        (["pair-transfer", "--shape", "3,3,2,1,1,4", "--f", "4" * 4000, "--beta", "1"],
         "pair degree f=44444444444444444444...(4000 digits) must divide n'=2"),
        (["green", "--d", str(6 * 10**400), "--u", "1", "--alpha0", "1", "--g", "1"],
         "base cardinality d=60000000000000000000...(401 digits) is not a prime power"),
        (["regular-part", "--Q", "2", "--nprime", "3", "--a", "1", "--ell", str(6 * 10**400)],
         "ell=60000000000000000000...(401 digits) is not prime"),
        (["zsigmondy", "--b", str(2**749 - 1), "--r", "2"],
         "no primitive prime divisor for b=29611932607664278700...(226 digits), r=2"),
        (["partition", "--Q", "2", "--nprime", "1400"],
         "M=27669029702758120146...(422 digits) exceeds enumeration bound 1000000"),
        (["green", "--d", "2", "--u", "1400", "--alpha0", str((2**1400 - 1) // 3), "--g", "1"],
         "exponent 92230099009193733821...(421 digits) has orbit size below 1400"),
        (["green", "--d", "2", "--u", "1400", "--alpha0", "1", "--g", str((2**1400 - 1) // 3)],
         "element exponent 92230099009193733821...(421 digits) has degree below 1400"),
        (["pair", "--shape", "2,2,1,700,1400,1", "--f", "2", "--beta", str(2**700 + 1)],
         "exponent 52601359015483735072...(211 digits) is not fully regular at degree 2"),
        (["rectifier", "--shape", _WILD_SHAPE], _WILD_MESSAGE),
        (["transfer", "--shape", _WILD_SHAPE, "--alpha", "0"], _WILD_MESSAGE),
    ],
    ids=["tower", "green", "chain", "degree", "chain-below-one", "zsigmondy-below-two", "pair", "pair-transfer",
         "green-d", "regular-part-ell", "zsigmondy-exception", "partition", "green-alpha0", "green-g",
         "pair-not-regular", "rectifier-not-tame", "transfer-not-tame"],
)
def test_error_documents_cap_large_integers(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert len(out.encode()) < 512 and len(err.encode()) < 512
    assert json.loads(out)["message"] == message


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["orbit", "--Q", "2", "--nprime", "3", "--a", "x" * 5000], "argument --a: invalid int value: 'xxx"),
        (["chain", "--M", "9" * 5000, "--from", "0", "--to", "1"], "argument --M: invalid int value: '999"),
        (["x" * 5000], "argument command: invalid choice: 'xxx"),
        (["orbit", "--Q", "2", "--nprime", "3", "--a", "1", *["y" * 100] * 50], "unrecognized arguments: yyy"),
        (["\U0001F600" * 5000], "argument command: invalid choice: '\U0001F600"),
        (["chain", "--M", "\U0001F600" * 5000, "--from", "0", "--to", "1"],
         "argument --M: invalid int value: '\U0001F600"),
    ],
    ids=["bad-int", "huge-int", "unknown-command", "unrecognized", "emoji-command", "emoji-int"],
)
def test_usage_errors_cap_the_echoed_arguments(capsys, argv, echoed):
    # argparse echoes a bad argument in full; the message keeps a prefix of at most 100 characters
    # as JSON escapes them (an emoji takes 12) and its length
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1
    assert len(out.encode()) < 1024 and len(err.encode()) < 1024
    message, usage = json.loads(out)["message"].split("\n", 1)
    assert message.startswith(echoed) and len(message) < 130
    assert message.endswith(" characters)") and usage.startswith("usage: tametransfer")


def test_short_usage_errors_are_whole():
    # argparse's part of this message, which lists every command, has about 240 characters
    message = run(["x"]).message.split("\n", 1)[0]
    assert message.startswith("argument command: invalid choice: 'x' (choose from ")
    assert message.rstrip("')").endswith("selftest") and "...(" not in message


@pytest.mark.parametrize("part", ["x", "1.5", "9" * 5000], ids=["word", "decimal", "5000-digits"])
def test_shape_with_a_bad_integer_is_a_usage_error(capsys, part):
    assert main(["tower", "--shape", f"3,3,2,1,1,{part}"]) == 1
    doc = one_document(capsys)
    assert doc["error_kind"] == "UsageError"
    assert doc["message"].startswith("bad integer in --shape: ")
    assert len(doc["message"]) < 300


def test_regularize_takes_no_a_override(capsys):
    assert main(["regularize", "--shape", "2,2,1,1,2,1", "--alpha", "0", "--a-override", "9"]) == 1
    assert one_document(capsys)["error_kind"] == "UsageError"


def test_chain_on_two_62_bit_primes_ends_at_the_work_budget(capsys):
    start = time.perf_counter()
    assert main(["chain", "--M", "13793694008417721531493373302890633983", "--from", "1", "--to", "5"]) == 2
    assert time.perf_counter() - start < 10.0
    doc = one_document(capsys)
    assert doc["error_kind"] == "FactorizationBudgetExceeded"
    assert "deg=1: 120 ECM curves spent in the ecm stage" in doc["message"]


def test_search_budget_is_a_domain_error(monkeypatch, capsys):
    # (18, 29) needs 27 curves; a budget of ten leaves its 117-bit primitive part unsplit
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 10)
    assert main(["zsigmondy", "--b", "18", "--r", "29"]) == 2
    doc = one_document(capsys)
    assert doc["error_kind"] == "FactorizationBudgetExceeded"
    bits = cyclotomic_value(29, 18).bit_length()
    assert "b=18, r=29" in doc["message"]
    assert doc["message"].endswith(f"10 ECM curves spent in the ecm stage with a {bits}-bit cofactor unsplit")


def test_output_is_byte_identical_across_runs(capsys):
    argv = ["table", "--shape", "3,3,1,1,2,2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["status"] == "ok"
    assert set(doc) == {"status", "payload"}


def test_main_prints_single_json_document(capsys):
    code = main(["zsigmondy", "--b", "2", "--r", "6"])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert doc["status"] == "error"
    assert doc["error_kind"] == "ZsigmondyException"
    assert "ZsigmondyException" in captured.err


def test_selftest_command_reports_in_payload(monkeypatch):
    import tametransfer.selftest as selftest_module
    from tametransfer.selftest import Criterion

    def fine():
        return "fine"

    def broken():
        raise selftest_module.CheckFailure("broken on purpose")

    fake = (Criterion("2_broken", 5.0, broken), Criterion("1_fine", 5.0, fine))
    monkeypatch.setattr(selftest_module, "CRITERIA", fake)
    result = run(["selftest"])
    # failures are reported in the payload, not via the exit code
    assert result.exit_code == 0
    names = [c["name"] for c in result.payload["criteria"]]
    assert names == ["1_fine", "2_broken"]
    assert result.payload["criteria"][0]["passed"] is True
    assert result.payload["criteria"][1]["passed"] is False
    assert result.payload["all_passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        # q = 3 * P1 * P2 with two 62-bit primes: the trial prime 3 leaves P1 * P2 behind
        ["tower", "--shape", "3,41381082025253164594480119908671901949,1,1,1,1"],
        # a 124-bit d with no small factor, no perfect power and not prime
        ["green", "--d", "13793694008417721531493373302890633983", "--u", "1", "--alpha0", "1", "--g", "1"],
    ],
)
def test_prime_power_check_factors_nothing(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert one_document(capsys)["error_kind"] == "NotPrimePower"


# a valid argv tail per command; the equivalence test breaks each in several ways
VALID = {
    "tower": ["--shape", "3,3,2,1,1,4"],
    "orbit": ["--Q", "2", "--nprime", "3", "--a", "1"],
    "order": ["--Q", "5", "--nprime", "2", "--a", "9"],
    "regular-part": ["--Q", "5", "--nprime", "2", "--a", "1", "--ell", "3"],
    "chain": ["--M", "24", "--from", "1", "--to", "5"],
    "partition": ["--Q", "2", "--nprime", "3"],
    "zsigmondy": ["--b", "2", "--r", "14"],
    "regularize": ["--shape", "2,2,1,1,2,1", "--alpha", "0"],
    "rectifier": ["--p", "3", "--q", "3", "--eEF", "2", "--fEF", "1", "--m", "1", "--d", "4"],
    "transfer": ["--shape", "3,3,2,1,1,4", "--alpha", "1"],
    "transfer-descent": ["--shape", "3,3,2,1,1,4", "--alpha", "0"],
    "pair": ["--shape", "3,3,2,1,1,4", "--f", "1", "--beta", "1"],
    "pair-transfer": ["--shape", "3,3,2,1,1,4", "--f", "1", "--beta", "1"],
    "green": ["--d", "2", "--u", "2", "--alpha0", "1", "--g", "1"],
    "table": ["--shape", "3,3,2,1,1,4"],
    "selftest": [],
}


def bad_argvs():
    yield from (["frobnicate"], [], ["-h"])
    for name, tail in VALID.items():
        if name != "selftest":  # selftest has no required flag: dropping one would run it
            yield [name, *tail[:-2]]  # a missing required flag
        yield [name, *tail, "--bogus", "1"]
        yield [name, *tail, "junk"]
        yield [name, *tail[:-1], "x"]  # a value that is not an integer
        yield [name, "-h"]


def outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # -h and --help
        code = exc.code
    return code, capsys.readouterr().out


def commands_built(argv):
    (action,) = [a for a in cli.build_parser(argv)._actions if a.dest == "command"]
    return list(action.choices)


def test_a_command_builds_only_its_own_subparser():
    assert list(VALID) == list(cli._COMMANDS)
    for argv in (None, [], ["frobnicate"], ["-h"], ["--", "orbit"]):
        assert commands_built(argv) == list(VALID)
    assert commands_built(["orbit", "-h"]) == ["orbit"]


def test_one_command_parser_answers_as_the_full_parser(monkeypatch, capsys):
    full_parser = cli.build_parser
    per_command = {}
    for argv in bad_argvs():
        per_command[tuple(argv)] = outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_parser([]))
    for argv, (code, out) in per_command.items():
        assert code in (0, 1), argv
        assert outcome(list(argv), capsys) == (code, out), argv


@pytest.mark.parametrize("argv", [["frobnicate"], ["transfer-descent", "--p", "x"]])
def test_a_usage_error_prints_the_same_document_on_every_terminal(argv, monkeypatch, capsys):
    documents = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        documents.append(outcome(argv, capsys))
    assert documents[0] == documents[1]
    assert documents[0][0] == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["orbit", "-h"], ["selftest", "--help"]])
def test_help_prints_usage_text_and_exits_zero(argv, capsys):
    code, out = outcome(argv, capsys)
    assert code == 0
    assert out.startswith("usage: tametransfer")


STARTUP_PROBE = """
import json, sys
from tametransfer.cli import main
main(["orbit", "--Q", "2", "--nprime", "3", "--a", "1"])
after_orbit = sorted(m for m in sys.modules if m.startswith("tametransfer."))
slow_after_orbit = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
import tametransfer.selftest as selftest
selftest.CRITERIA = tuple(selftest.Criterion(c.name, c.budget_seconds, lambda: "ok") for c in selftest.CRITERIA)
main(["selftest"])
print(json.dumps({"after_orbit": after_orbit, "slow_after_orbit": slow_after_orbit,
                  "selftest_loaded": "tametransfer.selftest" in sys.modules,
                  "dataclasses_after_selftest": "dataclasses" in sys.modules}))
"""


def test_only_selftest_imports_selftest():
    src = os.path.dirname(os.path.dirname(tametransfer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    orbit_doc, selftest_doc, probe = (json.loads(line) for line in done.stdout.splitlines())
    assert orbit_doc["payload"]["members"] == ["1", "2", "4"]
    assert selftest_doc["payload"]["all_passed"] is True
    assert probe["selftest_loaded"] is True
    layers = ("tower", "numth", "characters", "linking", "regularize", "tame", "green", "jsonio")
    assert "tametransfer.selftest" not in probe["after_orbit"]
    assert {f"tametransfer.{layer}" for layer in layers} <= set(probe["after_orbit"])
    # the records need neither module, and the interpreter was started without site
    assert probe["slow_after_orbit"] == []
    assert probe["dataclasses_after_selftest"] is False


@pytest.mark.parametrize("level_flags", [["--Q", "2", "--nprime", "3"], ["--Q", "2"], ["--nprime", "3"]])
def test_chain_refuses_a_bare_modulus_with_level_flags(level_flags, capsys):
    assert main(["chain", "--M", "24", *level_flags, "--from", "1", "--to", "5"]) == 1
    doc = one_document(capsys)
    assert doc["error_kind"] == "UsageError"
    assert "chain needs either --M alone or both --Q and --nprime" in doc["message"]


def test_selftest_report_is_version_2_with_every_criterion(monkeypatch, capsys):
    # stubs under the real names and budgets: the real criteria run in
    # test_acceptance.py
    import tametransfer.selftest as selftest_module
    from tametransfer.selftest import CRITERIA, Criterion

    stubs = tuple(Criterion(c.name, c.budget_seconds, lambda: "ok") for c in CRITERIA)
    monkeypatch.setattr(selftest_module, "CRITERIA", stubs)
    assert main(["selftest"]) == 0
    payload = one_document(capsys)["payload"]
    assert set(payload) == {"version", "criteria", "all_passed"}
    assert payload["version"] == 2
    assert payload["all_passed"] is True
    reported = [(c["name"], c["budget_seconds"]) for c in payload["criteria"]]
    assert reported == sorted((c.name, c.budget_seconds) for c in CRITERIA)


def test_selftest_fails_a_criterion_that_passes_over_its_budget():
    # a zero budget is always overrun, so the verdict does not hang on the speed of the machine
    from tametransfer.selftest import Criterion, run_criterion

    result = run_criterion(Criterion("stub", 0.0, lambda: "ok"))
    assert result["passed"] is False
    assert result["detail"].startswith("passed checks but took ")
    assert result["detail"].endswith(", over the 0.0s budget")


def test_selftest_takes_no_scale(capsys):
    assert main(["selftest", "--scale", "small"]) == 1
    assert one_document(capsys)["error_kind"] == "UsageError"
