"""The command-line front end, driven through ``main``: exit codes and JSON keys."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from wittlab import cli, suites
from wittlab.cli import main
from wittlab.cyclotomic import CyclotomicField

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# 10001 lines of `1`, one element past the --samples bound
_OVERSIZED_SAMPLES = os.path.join(GOLDEN, "samples_over_bound.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_unghost_over_the_rationals(capsys):
    code, out, _ = run(capsys, "compute", "--ring", "Q", "unghost (1,2)")
    assert code == 0
    assert out.strip() == "(1, 1/2)"
    code, out, _ = run(capsys, "compute", "--ring", "Q", "--json", "unghost (1,2)")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"op", "result"}
    assert payload["op"] == "unghost"
    assert payload["result"]["components"] == ["1", "1/2"]


def test_compute_unghost_over_the_integers_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "unghost (1,2)")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: 1 is not divisible by 2"


def test_compute_unghost_names_the_quotient_at_the_level_that_fails(capsys):
    # level 2 divides 4 - (0 + 2*1**2) = 2 by 2**2: the first p goes, the second fails
    code, out, err = run(capsys, "compute", "unghost (0,2,4)", "--ring", "Z")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: 1 is not divisible by 2"


def test_kernel_verify_over_a_gaussian_ring(capsys):
    code, out, _ = run(capsys, "kernel", "verify", "--ring", "Qi", "--p", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"j", "failures", "results"}
    assert payload["j"] == 1
    assert payload["failures"] == 0
    assert len(payload["results"]) == 10
    assert all(r["passed"] for r in payload["results"])


def test_artin_classify_reads_gaussian_constants(capsys):
    cases = (("3i", "3i"), ("-3i", "-3i"), ("2/3i", "2/3i"), ("3*i", "3i"), ("1/2+3i", "1/2+3i"))
    for text, shown in cases:
        code, out, _ = run(capsys, "artin", "classify", f"--f={text}", "--json")
        assert code == 0
        assert json.loads(out)["f"] == shown


def test_artin_classify_rejects_a_zero_denominator(capsys):
    code, out, err = run(capsys, "artin", "classify", "--f", "1/0")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_compute_over_truncated_rings_keeps_the_digit_budget(capsys):
    code, out, _ = run(capsys, "compute", "--ring", "Zmod", "--precision", "3", "neg (5~2)")
    assert code == 0 and out.strip() == "(3~2)"
    code, out, _ = run(
        capsys, "compute", "--ring", "ZzetaMod:2", "--precision", "3", "neg ([1,2]~2)"
    )
    assert code == 0 and out.strip() == "([3, 2]~2)"
    code, out, _ = run(capsys, "compute", "add (1, 2)(3, 4)")
    assert code == 0 and out.strip() == "(4, 3)"


def test_integers_past_the_interpreter_digit_limit_read_and_print_exactly(capsys):
    """The int/str digit limit (4300 by default) is lifted while ``main``
    runs, and ``main`` leaves it as it found it, even on an argparse exit."""
    old = sys.get_int_max_str_digits()
    n = "9" * 3000
    square = "9" * 2999 + "8" + "0" * 2999 + "1"  # (10^3000 - 1)^2
    numeral = "7" * 5000
    try:
        sys.set_int_max_str_digits(0)
        want = str(2**15000 - 1)
        sys.set_int_max_str_digits(4400)  # below each length here: 4516, 5000 and 6000 digits
        code, out, _ = run(capsys, "compute", f"mul ({n}) ({n})")
        assert (code, out) == (0, f"({square})\n")
        code, out, _ = run(capsys, "compute", "--json", f"mul ({n}) ({n})")
        assert code == 0 and json.loads(out)["result"]["components"] == [square]
        code, out, _ = run(capsys, "compute", "--ring", "Zmod", "--precision", "15000", "neg (1)")
        assert (code, out) == (0, f"({want})\n")
        code, out, _ = run(capsys, "compute", f"add ({numeral}) (0)")
        assert (code, out) == (0, f"({numeral})\n")
        assert sys.get_int_max_str_digits() == 4400
        with pytest.raises(SystemExit):
            main(["compute", "--p", "x", "neg (1)"])
        assert sys.get_int_max_str_digits() == 4400
    finally:
        sys.set_int_max_str_digits(old)


def test_compute_rejects_malformed_operands(capsys):
    for expr in ("neg 1, 2", "neg (1, 2", "neg ()", "add (1) x (2)", "neg ([1,0]~x)"):
        code, out, err = run(capsys, "compute", "--ring", "ZzetaMod:2", expr)
        assert code == 2, expr
        assert out == "" and err.startswith("error: ")


def test_solve_frob_parses_its_target(capsys):
    code, out, _ = run(capsys, "perfect", "solve-frob", "(4, 0)")
    assert code == 0
    assert out == "y = (0, 2~5, 2~4)\nverified at precision 4\n"
    code, out, _ = run(capsys, "perfect", "solve-frob", "(4, 0)", "--json")
    assert code == 0
    assert set(json.loads(out)) == {"report", "solved", "y"}


def test_solve_frob_reads_the_ring_option(capsys):
    """Without --ring the target lives in Z/p^M at --precision; --ring picks
    the ring, and one that is not Z/p^M is a usage error."""
    out = run(capsys, "perfect", "solve-frob", "(4, 0)")[1]
    assert run(capsys, "perfect", "solve-frob", "(4, 0)", "--ring", "Zmod")[1] == out
    code, out, _ = run(
        capsys, "perfect", "solve-frob", "(4, 0)", "--ring", "Zmod", "--precision", "4"
    )
    assert code == 0 and out.splitlines()[0] == "y = (0, 2~3, 2~2)"
    for spec in ("Q", "Z", "ZzetaMod:2"):
        code, out, err = run(capsys, "perfect", "solve-frob", "(1)", "--ring", spec)
        assert code == 2, spec
        assert out == "" and err.strip() == "error: greedy Frobenius solving works over Z/p^M bases"


def test_solve_frob_has_no_length_cap(capsys):
    code, out, _ = run(capsys, "perfect", "solve-frob", "(1, 2, 3, 4, 5)", "--precision", "8")
    assert code == 0
    assert out.startswith("no preimage (certified): ")
    code, out, _ = run(
        capsys, "perfect", "solve-frob", "(1, 2, 3, 4)", "--precision", "5", "--json"
    )
    assert code == 0
    assert json.loads(out)["report"]["verified_at_precision"] == 1


def test_perfect_test_uses_its_positional_instance(capsys):
    code, out, _ = run(capsys, "perfect", "test", "Zmod", "--json")
    assert code == 0
    assert json.loads(out)["instance"] == "Z/2^6"
    code, out, _ = run(capsys, "perfect", "test", "--ring", "Zmod", "--json")
    assert code == 0 and json.loads(out)["instance"] == "Z/2^6"
    code, out, _ = run(capsys, "perfect", "test", "--json")
    assert code == 0 and json.loads(out)["instance"] == "Z"


def test_bad_primes_and_ring_arguments_are_usage_errors(capsys):
    for argv in (
        ("verify", "kernel", "--p", "4"),
        ("compute", "--ring", "Zmod:x", "neg (1)"),
        ("compute", "--ring", "ZzetaMod:x", "neg ([1])"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ")


# Each invocation exits 2 with an `error: ` message and no traceback.  A row
# whose second field is set runs as a subprocess with stdout on /dev/full, at
# that PYTHONUNBUFFERED value, so the write fails from print or from the flush.
# (id, argv, message): usage errors whose message is pinned too
NAMED_USAGE_ERRORS = [
    (
        "compute-perfpoly-negative-exponent",
        ("compute", "--ring", "PerfPoly", "--depth", "2", "add (x^(-1/2)) (x)"),
        "error: exponent -1/2 is negative",
    ),
    (
        "compute-ring-kind-unhashable",
        ("compute", "--ring", '{"kind":["Z"],"p":2}', "neg (1)"),
        "error: unknown ring kind ['Z']",
    ),
    (
        "compute-ring-Qzeta-no-k",
        ("compute", "--ring", '{"kind":"Qzeta","p":2}', "neg ([1])"),
        "error: ring kind 'Qzeta' needs 'k'",
    ),
    (
        "compute-ring-keys-of-another-kind",
        ("compute", "--ring", '{"kind":"Z","p":2,"M":3,"depth":9}', "neg (1)"),
        "error: ring kind 'Z' takes no 'M', 'depth'",
    ),
    (
        "compute-ring-tilt-extra-key",
        (
            "compute",
            "--ring",
            '{"kind":"tilt","base":{"kind":"Zmod","p":2,"M":3},"depth":2,"p":2}',
            "neg (1)",
        ),
        "error: ring kind 'tilt' takes no 'p'",
    ),
    (
        "compute-perfpoly-doubled-parentheses",
        ("compute", "--ring", "PerfPoly", "--depth", "2", "neg (x^((1/2)))"),
        "error: bad term 'x^((1/2))' in 'x^((1/2))'",
    ),
    (
        "compute-perfpoly-empty-exponent",
        ("compute", "--ring", "PerfPoly", "--depth", "2", "neg (x^)"),
        "error: bad term 'x^' in 'x^'",
    ),
    # numbers outside the one ASCII grammar of rings.integer and rings.rational
    ("compute-digit-separator", ("compute", "add (1_000) (1)"), "error: not an integer: '1_000'"),
    (
        "compute-rational-exponent",
        ("compute", "--ring", "Q", "neg (1e3)"),
        "error: not a rational number: '1e3'",
    ),
    (
        "arrow-weight-exponent",
        ("arrow", "norm", "3", "--b", "1e-1"),
        "error: not a rational number: '1e-1'",
    ),
    (
        "kernel-samples-digit-separator",
        ("kernel", "verify", "--samples", "1_0"),
        "error: --samples must be a count or a readable file: "
        "[Errno 2] No such file or directory: '1_0'",
    ),
    (
        "artin-gaussian-exponent",
        ("artin", "classify", "--f", "1e1+2i"),
        "error: not a Gaussian number: '1e1+2i'",
    ),
    (
        "compute-perfpoly-non-ascii-index",
        ("compute", "--ring", "PerfPoly", "--depth", "2", "neg (x\u0660)"),
        "error: bad term 'x\u0660' in 'x\u0660'",
    ),
    # a cyclotomic degree past the bound is refused before anything is built
    (
        "compute-ring-ZzetaMod-oversized",
        ("compute", "--ring", "ZzetaMod:72", "neg (1)"),
        "error: conductor exponent k=72 gives field degree e = 1*2^(k-1), above the bound 262144",
    ),
    (
        "compute-ring-Qzeta-oversized",
        ("compute", "--ring", '{"kind":"Qzeta","p":2,"k":40}', "neg ([1])"),
        "error: conductor exponent k=40 gives field degree e = 1*2^(k-1), above the bound 262144",
    ),
    (
        "perfect-zeta-ring-oversized",
        ("perfect", "test", "zeta-ring", "--p", "2", "--depth", "40"),
        "error: conductor exponent k=40 gives field degree e = 1*2^(k-1), above the bound 262144",
    ),
    # a variable is read only under the name format_elt writes for it
    *(
        (
            f"compute-perfpoly-name-{name.replace(' ', '-')}-over-{spec}",
            ("compute", "--ring", spec, "--depth", "2", f"neg ({name})"),
            f"error: unknown variable {name!r}",
        )
        for spec, names in (("PerfPoly:2", ("x 1", "x01", "x")), ("PerfPoly", ("x0", "x00")))
        for name in names
    ),
    # a sample count past the bound is refused before any draw
    (
        "kernel-samples-oversized",
        ("kernel", "verify", "--samples", "100000000"),
        "error: --samples = 100000000 is above the bound 10000",
    ),
    # and a samples file, once its 10001st element is read, before any is checked
    (
        "kernel-samples-file-oversized",
        ("kernel", "verify", "--samples", _OVERSIZED_SAMPLES),
        "error: --samples elements read = 10001 is above the bound 10000",
    ),
    # a refusal quotes at most 40 characters of a long text, and its length
    (
        "compute-integer-long-text",
        ("compute", f"neg ({'7' * 5000}x)"),
        f"error: not an integer: {'7' * 40!r}... (5001 characters)",
    ),
    # and so does every refusal outside the element parsers
    (
        "compute-ring-json-long-value",
        ("compute", "--ring", f'{{"kind":"Z","p":"{"7" * 5000}"}}', "neg (1)"),
        f"error: p must be an integer >= 2, got {'7' * 40!r}... (5000 characters)",
    ),
    (
        "compute-ring-json-long-number",
        ("compute", "--ring", f'{{"kind":"Z","p":{"7" * 5000}}}', "neg (1)"),
        f"error: p = {'7' * 40}... (5000 characters) is above the bound 65536",
    ),
    (
        "compute-ring-long-kind",
        ("compute", "--ring", "Q" + "z" * 5000, "neg (1)"),
        f"error: unknown ring kind {'Q' + 'z' * 39!r}... (5001 characters)",
    ),
    (
        "compute-ring-long-colon-argument",
        ("compute", "--ring", "Zmod:" + "x" * 5000, "neg (1)"),
        f"error: {'Zmod:' + 'x' * 35!r}... (5005 characters): the ':' argument must be an integer",
    ),
    (
        "kernel-samples-long-path",
        ("kernel", "verify", "--samples", "/nonexistent/" + "x" * 200),
        "error: --samples must be a count or a readable file: [Errno 2] No such file or "
        f"directory: {'/nonexistent/' + 'x' * 27!r}... (213 characters)",
    ),
    (
        "perfect-long-instance",
        ("perfect", "test", "x" * 5000),
        f"error: unknown perfectness instance {'x' * 40!r}... (5000 characters); "
        "use one of Z, Zmod, Qi, zeta-ring, tower or an inline JSON config",
    ),
    (
        "artin-long-field",
        ("artin", "classify", "--field", "x" * 5000, "--f", "1"),
        "error: classification is implemented over the Gaussian field only, "
        f"got {'x' * 40!r}... (5000 characters)",
    ),
    # the prime and the modulus exponent are bounded before any work on them;
    # these values are cheap even past a failed bound, and large ones run in
    # a child process below
    (
        "compute-p-over-bound",
        ("compute", "--p", "65537", "neg (1)"),
        "error: p = 65537 is above the bound 65536",
    ),
    (
        "compute-precision-over-bound",
        ("compute", "--ring", "Zmod", "--precision", "65537", "neg (1)"),
        "error: modulus exponent M = 65537 is above the bound 65536",
    ),
    (
        "compute-ring-json-M-over-bound",
        ("compute", "--ring", '{"kind":"ZzetaMod","p":3,"k":2,"M":65537}', "neg ([1])"),
        "error: modulus exponent M = 65537 is above the bound 65536",
    ),
    # a sample count of any length is quoted by a bounded prefix
    (
        "kernel-samples-long-negative",
        ("kernel", "verify", f"--samples=-{'7' * 5000}"),
        f"error: --samples must be an integer >= 1, got -{'7' * 39}... (5001 characters)",
    ),
    (
        "kernel-samples-long-count",
        ("kernel", "verify", f"--samples={'7' * 5000}"),
        f"error: --samples = {'7' * 40}... (5000 characters) is above the bound 10000",
    ),
    # the structure polynomials, the family depth and the vector length are
    # bounded before any work; past a failed bound these values cost a few
    # seconds at most, and large ones run in a child process below
    (
        "universal-dump-p-over-budget",
        ("universal", "dump", "--p", "17"),
        "error: structure polynomials at p=17, index 2: p^2 = 289 is above the bound 169",
    ),
    (
        "arrow-norm-depth-over-bound",
        ("arrow", "norm", "4", "--depth", "17"),
        "error: family depth = 17 is above the bound 16",
    ),
    (
        "arrow-norm-long-depth",
        ("arrow", "norm", "4", "--depth", "7" * 5000),
        f"error: family depth = {'7' * 40}... (5000 characters) is above the bound 16",
    ),
    # the tower reaches level depth + 1, its field degree bounded before any
    # level is built; depth 16 runs in a child process below
    (
        "perfect-tower-depth-over-bound",
        ("perfect", "test", "tower", "--depth", "8"),
        "error: tower level 9 at p=2 is above the bound: its field degree "
        "(p-1)*p^(level+1) must be at most 512",
    ),
    (
        "perfect-tower-p3-depth-over-bound",
        ("perfect", "test", '{"instance":"tower","p":3,"levels":4}'),
        "error: tower level 5 at p=3 is above the bound: its field degree "
        "(p-1)*p^(level+1) must be at most 512",
    ),
    (
        "tilt-untilt-depth-over-bound",
        ("tilt", "untilt", "5", "--p", "3", "--depth", "11", "--n", "11"),
        "error: family depth = 11 is above the bound 10",
    ),
    (
        "compute-vector-over-bound",
        ("compute", f"neg ({','.join(['1'] * 18)})"),
        "error: vector length 18 is above the bound 17 at p=2 (p^(length-1) at most 65536)",
    ),
    # the tilt depth, the PerfPoly variable count and depth and the tower's
    # draws have plain bounds; these values are cheap past a failed bound
    (
        "tilt-depth-over-bound",
        ("tilt", "add", "1", "2", "--depth", "1025"),
        "error: tilt depth = 1025 is above the bound 1024",
    ),
    (
        "compute-perfpoly-depth-over-bound",
        ("compute", "--ring", "PerfPoly", "--depth", "257", "neg (x)"),
        "error: PerfPoly depth = 257 is above the bound 256",
    ),
    (
        "compute-perfpoly-nvars-over-bound",
        ("compute", "--ring", "PerfPoly:65", "neg (x0)"),
        "error: PerfPoly nvars = 65 is above the bound 64",
    ),
    (
        "perfect-tower-samples-over-bound",
        ("perfect", "test", '{"instance":"tower","p":2,"levels":1,"samples":257}'),
        "error: tower samples = 257 is above the bound 256",
    ),
    # an entry's bits times the power the ghost map raises it to, over an
    # exact ring and for arrow's integer; a few seconds past a failed bound
    (
        "compute-entry-over-budget",
        ("compute", f"neg ({','.join(['9' * 300] * 10)})"),
        "error: an entry of 997 bits raised to 2^9: 997*2^9 = 510464 is above the bound 262144",
    ),
    (
        "arrow-norm-entry-over-budget",
        ("arrow", "norm", "9" * 300, "--depth", "9"),
        "error: an entry of 997 bits raised to 2^9: 997*2^9 = 510464 is above the bound 262144",
    ),
    # over a truncated ring the entry is its largest reduced digit, and the
    # Artin constant is raised to p^depth
    (
        "compute-zmod-entry-over-budget",
        (
            "compute", "--ring", "Zmod", "--precision", "997",
            f"neg ({','.join([str(2**996)] * 10)})",
        ),
        "error: an entry of 997 bits raised to 2^9: 997*2^9 = 510464 is above the bound 262144",
    ),
    (
        "artin-f-over-budget",
        ("artin", "classify", "--f", "1/" + "9" * 633),
        "error: an entry of 2103 bits raised to 5^3: 2103*5^3 = 262875 is above the bound 262144",
    ),
    # a kernel run's samples * e * p^j, e the ring's degree; cheap past a failed bound
    (
        "kernel-work-over-bound",
        ("kernel", "verify", "--p", "2", "--j", "12"),
        "error: kernel work samples*e*p^j = 10*1*2^12 = 40960 is above the bound 32768",
    ),
    (
        "kernel-work-over-bound-Qi",
        ("kernel", "verify", "--ring", "Qi", "--p", "2", "--j", "11"),
        "error: kernel work samples*e*p^j = 10*2*2^11 = 40960 is above the bound 32768",
    ),
    # a computed value is quoted by a bounded prefix, as a text is
    (
        "arrow-norm-long-negative-b",
        ("arrow", "norm", "3", "--b", "-" + "7" * 3000),
        f"error: the weight b must be positive, got {'-' + '7' * 39!r}... (3001 characters)",
    ),
    (
        "compute-unghost-long-quotient",
        ("compute", "--p", "2", f"unghost (1, {'7' * 3000}6)"),
        f"error: {'7' * 40!r}... (3001 characters) is not divisible by 2",
    ),
    # refusals that no other test runs
    (
        "compute-too-few-vectors",
        ("compute", "add (1)"),
        "error: add takes 2 vector(s), got 1 in 'add (1)'",
    ),
    (
        "arrow-lift-exact-ring",
        ("arrow", "lift", "3", "--ring", "Z"),
        "error: arrow lift needs a truncated base ring, got Z",
    ),
    (
        "perfect-bad-instance-json",
        ("perfect", "test", "{bad"),
        "error: bad instance config: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    (
        "compute-ring-tilt-no-base",
        ("compute", "--ring", '{"kind":"tilt","depth":2}', "neg (1)"),
        "error: tilt ring config needs a 'base' ring config",
    ),
]
_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
USAGE_ERRORS = [
    pytest.param(("perfect", "test", '{"instance":"Zmod","p":2}'), None, id="perfect-no-M"),
    pytest.param(("perfect", "test", '{"instance":"Z"}'), None, id="perfect-no-p"),
    pytest.param(
        ("perfect", "test", '{"instance":"zeta-ring","p":2,"k":"x"}'), None, id="perfect-k-not-int"
    ),
    # JSON true is a Python bool, which is an int: refused as no integer
    pytest.param(
        ("perfect", "test", '{"instance":"zeta-ring","p":2,"k":true}'), None, id="perfect-k-true"
    ),
    pytest.param(("perfect", "test", '{"instance":"Zmod","p":3,"M":true}'), None, id="perfect-M-true"),
    pytest.param(
        ("perfect", "test", '{"instance":"tower","p":2,"levels":true,"samples":true}'),
        None,
        id="perfect-tower-levels-true",
    ),
    pytest.param(
        ("compute", "--ring", '{"kind":"Zmod","p":2,"M":true}', "add (1,1) (1,0)", "--json"),
        None,
        id="compute-ring-M-true",
    ),
    pytest.param(("perfect", "test", "Z", "--p", "4"), None, id="perfect-p-not-prime"),
    *(pytest.param(argv, None, id=name) for name, argv, _ in NAMED_USAGE_ERRORS),
    pytest.param(("perfect", "test", '{"instance":"Zmod","p":2,"M":0}'), None, id="perfect-M-zero"),
    pytest.param(("perfect", "test", "tower", "--depth", "0"), None, id="perfect-tower-depth-zero"),
    pytest.param(
        ("perfect", "test", '{"instance":"tower","p":3,"levels":1,"samples":0}'),
        None,
        id="perfect-tower-samples-zero",
    ),
    pytest.param(
        ("perfect", "test", '{"instance":"tower","p":3,"levels":-1}'),
        None,
        id="perfect-tower-levels-negative",
    ),
    pytest.param(("tilt", "untilt", "1", "--n", "-1"), None, id="untilt-negative-n"),
    pytest.param(("tilt", "add", "1", "2", "--depth", "-1"), None, id="tilt-negative-depth"),
    pytest.param(("verify", "arrow", "--p", "5"), None, id="verify-arrow-uncovered-prime"),
    pytest.param(("verify", "kernel", "--p", "5"), None, id="verify-kernel-uncovered-prime"),
    pytest.param(("kernel", "verify", "--samples", "0"), None, id="kernel-samples-zero"),
    pytest.param(("kernel", "verify", "--samples", "-3"), None, id="kernel-samples-negative"),
    pytest.param(
        ("kernel", "verify", "--samples", os.devnull), None, id="kernel-samples-empty-file"
    ),
    pytest.param(("perfect", "test", "--json"), "", id="full-device", marks=_FULL),
    pytest.param(("perfect", "test", "--json"), "1", id="full-device-unbuffered", marks=_FULL),
]


@pytest.mark.parametrize(
    "argv, message", [pytest.param(argv, msg, id=name) for name, argv, msg in NAMED_USAGE_ERRORS]
)
def test_named_usage_errors_print_their_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err.strip()) == (2, "", message)
    assert len(err.encode()) < 200


# a child under a 1 GB address-space limit: a bound that failed to hold ends
# in a MemoryError or a timeout, not in a host out of memory
_BOUND_PROBE = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from wittlab.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


def _vector(length: int, entry: str = "3") -> str:
    return "(" + ",".join([entry] * length) + ")"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("compute", "--p", "1000000000000000003", "neg (1)"), "is above the bound 65536"),
        (
            ("compute", "--ring", "Zmod", "--precision", "10000000", "neg (1)"),
            "is above the bound 65536",
        ),
        (("universal", "dump", "--p", "65521"), "p^1 = 65521 is above the bound 169"),
        (("arrow", "norm", "4", "--depth", "25"), "family depth = 25 is above the bound 16"),
        (
            ("tilt", "untilt", "5", "--p", "3", "--depth", "1024", "--n", "2000"),
            "family depth = 2000 is above the bound 10",
        ),
        (("compute", f"mul {_vector(24)} {_vector(24)}"), "vector length 24 is above the bound 17"),
        (
            ("compute", "--ring", "Zmod", f"mul {_vector(40)} {_vector(40)}"),
            "vector length 40 is above the bound 17",
        ),
        (("perfect", "test", "tower", "--depth", "16"), "tower level 17 at p=2 is above the bound"),
        (("tilt", "add", "1", "2", "--depth", "100000000"), "tilt depth = 100000000 is above"),
        (
            ("compute", "--ring", "PerfPoly", "--depth", "100000000000", "neg (x)"),
            "PerfPoly depth = 100000000000 is above",
        ),
        (("compute", "--ring", "PerfPoly:1000000", "neg (x0)"), "PerfPoly nvars = 1000000 is above"),
        (
            ("compute", "--ring", "PerfPoly:100000000", "neg (x0)"),
            "PerfPoly nvars = 100000000 is above",
        ),
        (
            ("kernel", "verify", "--ring", "Qi", "--p", "5", "--j", "8"),
            "kernel index j = 8 is above the bound 6",
        ),
        (("kernel", "verify", "--p", "2", "--j", "17"), "kernel index j = 17 is above the bound 16"),
        (
            ("artin", "classify", "--f", "1/5", "--depth", "9"),
            "ghost-constant profile depth = 9 is above the bound 6",
        ),
        (
            ("perfect", "test", '{"instance":"tower","p":2,"levels":3,"samples":10000000}'),
            "tower samples = 10000000 is above",
        ),
        (
            ("compute", f"mul {_vector(11, '9' * 300)} {_vector(11, '9' * 300)}"),
            "an entry of 997 bits raised to 2^10",
        ),
        (("arrow", "norm", "9" * 300, "--depth", "12"), "an entry of 997 bits raised to 2^12"),
        (
            (
                "compute", "--ring", "Zmod", "--precision", "4096",
                f"mul {_vector(12, str(2**4095 - 1))} {_vector(12, str(2**4095 - 1))}",
            ),
            "an entry of 4095 bits raised to 2^11",
        ),
        (
            ("artin", "classify", "--f", "1/" + "7" * 3000, "--p", "5"),
            "an entry of 9966 bits raised to 5^3",
        ),
        (
            ("kernel", "verify", "--ring", "Q", "--p", "2", "--j", "16"),
            "= 10*1*2^16 = 655360 is above",
        ),
        (
            ("kernel", "verify", "--ring", "Qi", "--p", "5", "--j", "6"),
            "= 10*2*5^6 = 312500 is above",
        ),
    ],
    ids=[
        "prime", "precision", "structure-prime", "family-depth", "untilt-depth", "length",
        "length-Zmod", "tower-depth", "tilt-depth", "perfpoly-depth", "perfpoly-nvars",
        "perfpoly-nvars-huge", "kernel-j", "kernel-j-p2", "artin-depth", "tower-samples",
        "entry-bits", "arrow-entry-bits", "zmod-entry-bits", "artin-f-bits", "kernel-work",
        "kernel-work-Qi",
    ],
)
def test_a_size_past_its_bound_is_refused_in_under_a_second(argv, refusal):
    proc = subprocess.run(
        [sys.executable, "-c", _BOUND_PROBE, *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    code, seconds = proc.stdout.split()
    assert code == "2" and float(seconds) < 1.0, proc.stderr
    assert refusal in proc.stderr


def test_a_truncated_entry_counts_by_its_least_absolute_residue(capsys):
    """2^4096 - 1 is -1 mod 2^4096, which the ghost map raises cheaply: the
    entry budget reads it as one bit, and 2^4095 - 1 (above) as 4095."""
    vector = _vector(12, str(2**4096 - 1))
    argv = ("compute", "--ring", "Zmod", "--precision", "4096", f"mul {vector} {vector}")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_integer_flags_and_the_prime_state_their_bounds(capsys):
    for command, bounds in (
        (
            "compute",
            (
                "the prime, at most 65536 (default 2)",
                "truncation exponent M, at most 65536",
                "a vector's p^(length-1) at most 65536",
            ),
        ),
        ("arrow", ("the family's p^depth at most 65536",)),
        ("tilt", ("the family's p^n at most 65536", "chain depth at most 1024")),
        ("kernel", ("p^j at most 65536", "samples*e*p^j at most 32768")),
        ("artin", ("p^depth at most 65536",)),
        ("universal", ("p^index at most 169",)),
        ("perfect", ("field degree (p-1)*p^(depth+2) at most 512",)),
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = " ".join(capsys.readouterr().out.split())
        for bound in bounds:
            assert bound in usage, (command, bound)


# argparse's own refusals: each long token is cut as errors._quoted cuts it
ARGPARSE_REFUSALS = [
    pytest.param(
        ("verify", "x" * 5000),
        f"argument suite: invalid choice: {'x' * 40!r}... (5000 characters) (choose from ",
        id="invalid-choice",
    ),
    pytest.param(
        ("compute", "neg (1)", "x" * 5000),
        f"unrecognized arguments: {'x' * 40!r}... (5000 characters)",
        id="unrecognized-argument",
    ),
    # many short unrecognized arguments: the first three and the count of the rest
    pytest.param(
        ("compute", "neg (1)", *["a", "b"] * 30),
        "unrecognized arguments: a b a ... (57 more)",
        id="unrecognized-arguments-many",
    ),
]


@pytest.mark.parametrize("argv, start", ARGPARSE_REFUSALS)
def test_an_argparse_refusal_quotes_a_bounded_prefix_of_a_long_token(capsys, argv, start):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    # the refusal after argparse's "<prog>: error: " prefix
    message = capsys.readouterr().err.splitlines()[-1].split(": error: ", 1)[1]
    assert message.startswith(start) and len(message.encode()) < 200, message


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "xx"),
        ("compute", "neg (1)", "xx"),
        ("compute", "neg (1)", "a", "b", "c"),
        ("xx",),
        ("verify", "x" * 40),
    ],
)
def test_an_argparse_refusal_of_short_tokens_is_argparse_own(capsys, monkeypatch, argv):
    def refusal():
        with pytest.raises(SystemExit):
            main(list(argv))
        return capsys.readouterr().err

    ours = refusal()
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    monkeypatch.setattr(cli._Parser, "parse_args", argparse.ArgumentParser.parse_args)
    assert refusal() == ours


def test_an_integer_flag_quotes_a_bounded_prefix_of_a_long_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--p", "x" * 5000, "neg (1)"])
    assert exc.value.code == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert line == (
        "wittlab compute: error: argument --p: invalid integer value: "
        f"{'x' * 40!r}... (5000 characters)"
    )


def test_a_file_named_like_a_ring_shorthand_does_not_shadow_it(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Z").write_text("not json")
    (tmp_path / "Zmod").write_text('{"kind":"Q","p":3}')
    (tmp_path / "ring.json").write_text('{"kind":"Zmod","p":3,"M":2}')
    assert run(capsys, "compute", "neg (1)") == (0, "(-1)\n", "")
    assert run(capsys, "compute", "--ring", "Zmod", "neg (1)") == (0, "(63)\n", "")
    assert run(capsys, "compute", "--ring", "ring.json", "neg (1)") == (0, "(8)\n", "")


def test_a_file_that_is_not_utf8_text_is_a_usage_error(capsys, tmp_path):
    path = str(tmp_path / "bytes.bin")
    with open(path, "wb") as handle:
        handle.write(b"\xc0\xff\n")
    for argv in (("compute", "--ring", path, "neg (1)"), ("kernel", "verify", "--samples", path)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "can't decode byte 0xc0" in err, err


@pytest.mark.parametrize("argv, unbuffered", USAGE_ERRORS)
def test_usage_errors_exit_two_with_a_message(capsys, argv, unbuffered):
    if unbuffered is None:
        code, out, err = run(capsys, *argv)
        assert out == "", argv
    else:
        env = dict(_subprocess_env(), PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "wittlab", *argv],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        code, err = proc.returncode, proc.stderr
    assert code == 2, (argv, err)
    assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("flag", ["--p", "--precision", "--depth"])
def test_an_integer_flag_outside_the_grammar_is_an_argparse_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["compute", flag, "\u0663", "neg (1)"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid integer value: '\u0663'" in capsys.readouterr().err


def test_arrow_lift_and_theta_read_the_ring_option(capsys):
    code, out, _ = run(capsys, "arrow", "lift", "3", "--ring", "ZzetaMod:2", "--json")
    assert code == 0
    ring = json.loads(out)["lifted"]["ring"]
    assert ring["kind"] == "ZzetaMod" and ring["M"] == 3
    code, out, err = run(capsys, "arrow", "theta", "3", "--ring", "Z")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_arrow_lift_defaults_to_the_integers_mod_p_power(capsys):
    code, out, _ = run(capsys, "arrow", "lift", "3", "--depth", "1")
    assert code == 0
    assert out.splitlines() == [
        "lift of 3 from Z/2^2 to Z/2^3 at depth 1:",
        "  level 0: (3)",
        "  level 1: (3, 5)",
    ]


def test_suite_prime_filter_that_matches_nothing_is_a_usage_error(capsys):
    for suite in ("kernel", "arrow"):
        code, out, err = run(capsys, "verify", suite, "--p", "5")
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: --p 5: suite {suite} covers p in {{2, 3}} only"


def test_a_single_suite_skips_the_checks_without_a_case_at_the_prime(capsys):
    code, out, _ = run(capsys, "verify", "perfect", "--p", "5", "--json")
    assert code == 0
    cases = {c["name"]: (c["status"], c["detail"]) for c in json.loads(out)["cases"]}
    assert cases.pop("frobenius_solving") == (
        "inconclusive",
        "skipped: --p 5: this check covers p in {2, 3} only",
    )
    assert set(cases) == {"gaussian_not_perfect", "integers_not_perfect"}
    assert all(status == "pass" for status, _ in cases.values())
    assert cases["integers_not_perfect"][1].endswith("convolution arithmetic: p=5: a=1 (25 residues)")


def test_prime_filter_drops_the_cases_of_other_primes(capsys):
    expected = {
        "arrow": (
            0,
            [
                "depth_lifting",
                "integer_rigidity",
                "inverse_frobenius_sandwich",
                "mul_by_p_norm_p3",
                "theta_integer_golden_p3",
                "theta_lift_stability_p3",
                "theta_projection_equals_series_p3",
                "theta_ring_hom_p3",
            ],
        ),
        "tilt": (
            0,
            [
                "charp_overconvergence",
                "tilt_add_laws_p3",
                "tilt_char_p_p3",
                "tilt_frobenius_bijective_p3",
                "tilt_mul_laws_p3",
                "untilt_isometry",
            ],
        ),
        "perfect": (
            0,
            [
                "integers_not_perfect",
                "solve_normed_contract_p3",
                "solve_roundtrip_p3",
                "tower_p3_level2",
                "tower_p3_seed_independent",
                "zeta3_ring_not_perfect",
            ],
        ),
        "artin": (
            0,
            ["invariant_named_cases", "profile_stability", "teichmuller_fixed_points"],
        ),
    }
    details = {}
    for suite, (want_code, names) in expected.items():
        code, out, _ = run(capsys, "verify", suite, "--p", "3", "--json")
        assert code == want_code, suite
        cases = json.loads(out)["cases"]
        assert [c["name"] for c in cases] == names
        details.update((c["name"], c["detail"]) for c in cases)
    # the checks that exist at p = 2 only are reported as skipped
    for name in ("depth_lifting", "integer_rigidity", "charp_overconvergence", "untilt_isometry"):
        assert details[name] == "skipped: --p 3: this check covers p in {2} only"
    # the cases that mix primes keep only their p=3 samples
    assert details["integers_not_perfect"].endswith("convolution arithmetic: p=3: a=1 (9 residues)")
    assert "p=5" not in details["invariant_named_cases"]
    assert details["teichmuller_fixed_points"] == (
        "i^3 = -i breaks the shift-invariance of [i] at p=3"
    )


def test_prime_filter_keeps_the_other_primes_of_mixed_checks(capsys):
    code, out, _ = run(capsys, "verify", "artin", "--p", "7", "--json")
    assert code == 0
    (case,) = json.loads(out)["cases"]
    assert case["name"] == "teichmuller_fixed_points"
    assert case["detail"] == "1 is invariant at p=7"
    code, out, err = run(capsys, "verify", "artin", "--p", "2")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: --p 2: suite artin covers p in {3, 5, 7} only"


def test_sandwich_names_the_rings_the_prime_filter_kept(capsys):
    code, out, _ = run(capsys, "verify", "arrow", "--p", "3", "--json")
    (case,) = [c for c in json.loads(out)["cases"] if c["name"] == "inverse_frobenius_sandwich"]
    assert case["detail"].startswith("100 certified coherent samples over Z/3^4 with b in")


def test_kernel_verify_refuses_a_sample_count_over_rings_without_division_by_p(capsys):
    for spec in ("Z", "Zmod", "ZzetaMod:2", "PerfPoly:1"):
        code, out, err = run(capsys, "kernel", "verify", "--ring", spec)
        assert code == 2, spec
        assert out == ""
        assert "needs a Q-algebra" in err and "Q, Qi or Qzeta:k" in err


def test_kernel_verify_reads_samples_over_the_integers_from_a_file(capsys, tmp_path):
    samples = tmp_path / "t.txt"
    samples.write_text("4\n")
    code, out, _ = run(
        capsys, "kernel", "verify", "--ring", "Z", "--samples", str(samples), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert [r["t"] for r in payload["results"]] == ["4"]


def test_kernel_verify_refuses_a_run_with_no_sample(capsys):
    for samples, message in (
        ("0", "--samples must be an integer >= 1, got 0"),
        ("-3", "--samples must be an integer >= 1, got -3"),
        (os.devnull, "--samples elements read must be an integer >= 1, got 0"),
    ):
        code, out, err = run(capsys, "kernel", "verify", "--samples", samples)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"


def test_kernel_verify_bounds_a_samples_file_by_its_work_before_parsing_it(capsys, tmp_path):
    # no element of the file parses: the work bound reads only their count
    samples = tmp_path / "t.txt"
    samples.write_text("x\n" * 3)
    code, out, err = run(capsys, "kernel", "verify", "--samples", str(samples), "--j", "14")
    assert (code, out) == (2, "")
    assert err.strip() == (
        "error: kernel work samples*e*p^j = 3*1*2^14 = 49152 is above the bound 32768"
    )


def test_kernel_verify_prints_a_zero_norm_as_zero(capsys, tmp_path):
    samples = tmp_path / "t.txt"
    samples.write_text("0\n")
    code, out, _ = run(capsys, "kernel", "verify", "--samples", str(samples))
    assert code == 0
    assert out.splitlines() == ["[pass] t=0: |w1| = 0, scaled sup = 0", "1 samples, 0 failures"]


def test_kernel_verify_draws_units_times_powers_of_either_sign_over_qzeta(capsys):
    code, out, _ = run(capsys, "kernel", "verify", "--ring", "Qzeta:2", "--samples", "30", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    field = CyclotomicField(2, 2)
    pi = field.uniformizer()
    valuations, pure_powers = [], []
    for r in payload["results"]:
        t = field.parse_elt(r["t"])
        v = field.valuation(t)
        assert -2 <= v <= 2
        steps = int(v * field.e)
        power = field.pow_(pi, abs(steps))
        valuations.append(v)
        pure_powers.append(field.eq(t, power if steps >= 0 else field.inv(power)))
    assert min(valuations) < 0 < max(valuations)
    assert not all(pure_powers)


# -- tilt and universal -------------------------------------------------------------

# JSON that `tilt add` printed before its ladder rewrite, per argv
TILT_ADD_PINS = [
    (
        ("5", "7", "--p", "3", "--precision", "3", "--depth", "4"),
        {
            "base": {"M": 3, "kind": "Zmod", "p": 3},
            "entries": [0, 0, 0, {"prec": 2, "value": 0}, {"prec": 1, "value": 0}],
        },
    ),
    (
        ("5", "5", "--p", "3", "--precision", "3", "--depth", "4"),
        {
            "base": {"M": 3, "kind": "Zmod", "p": 3},
            "entries": [1, 1, 1, {"prec": 2, "value": 1}, {"prec": 1, "value": 1}],
        },
    ),
    (
        ("[1,1]", "[0,1]", "--ring", "ZzetaMod:2", "--precision", "4", "--depth", "2"),
        {
            "base": {"M": 4, "k": 2, "kind": "ZzetaMod", "p": 2},
            "entries": [
                {"coeffs": [1, 0], "prec": 3},
                {"coeffs": [1, 0], "prec": 2},
                {"coeffs": [1, 0], "prec": 1},
            ],
        },
    ),
    (
        ("[1,1]", "[1,0]", "--ring", "ZzetaMod:2", "--precision", "2", "--depth", "4"),
        {
            "base": {"M": 2, "k": 2, "kind": "ZzetaMod", "p": 2},
            "entries": [[1, 0], [1, 0], [1, 0], [3, 0], {"coeffs": [0, 1], "prec": 1}],
        },
    ),
]


def test_tilt_add_json_is_pinned(capsys):
    for argv, result in TILT_ADD_PINS:
        code, out, _ = run(capsys, "tilt", "add", *argv, "--json")
        assert code == 0, argv
        assert json.loads(out) == {"op": "add", "result": result}, argv


def test_tilt_mul_norm_and_untilt_print_their_json_keys(capsys):
    code, out, _ = run(capsys, "tilt", "mul", "5", "4", "--p", "3", "--depth", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"op", "result"} and payload["op"] == "mul"
    assert payload["result"]["entries"] == [26, 26, 26, 8, 20]
    code, out, _ = run(capsys, "tilt", "norm", "[0,1]", "--ring", "ZzetaMod:2", "--depth", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"op": "norm", "result": "p^0"}
    code, out, _ = run(
        capsys, "tilt", "untilt", "5", "--p", "3", "--depth", "3", "--n", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"op", "result"} and payload["op"] == "untilt"
    assert set(payload["result"]) == {"levels", "ring", "tail_bound_exponent"}
    assert payload["result"]["levels"] == [[26], [26, 0], [17, 0, 0]]
    code, out, _ = run(capsys, "tilt", "add", "5", "5", "--p", "3", "--depth", "2")
    assert code == 0
    assert out.splitlines() == ["  slot 0: 1", "  slot 1: 1~2", "  slot 2: 1~1"]


def test_tilt_usage_errors_exit_two(capsys):
    for argv in (
        ("tilt", "add", "5"),
        ("tilt", "norm", "5", "7"),
        ("tilt", "untilt", "5", "7"),
        ("tilt", "add", "5", "7", "--ring", "Q"),
        ("tilt", "add", "5", "x"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv


def test_universal_dump_prints_the_integer_polynomials(capsys):
    code, out, _ = run(capsys, "universal", "dump", "--p", "2")
    assert code == 0
    with open(os.path.join(GOLDEN, "structure_polys_p2.txt")) as fh:
        assert out == fh.read()
    # coefficients divisible by p stay: the dump is not the mod-p reduction
    assert "prod[p=2,i=1] = 2*x2*y2 + 1*x2*y1^2 + 1*x1^2*y2" in out.splitlines()
    code, out, _ = run(capsys, "universal", "dump", "--p", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"p", "polynomials"} and payload["p"] == 2
    assert "sum[p=2,i=2] = " + " + ".join(
        ["1*y4", "1*x4", "-1*x2*y2", "1*x1*y1*y2", "-1*x1*y1^3", "1*x1*x2*y1", "-2*x1^2*y1^2", "-1*x1^3*y1"]
    ) in payload["polynomials"]
    code, out, err = run(capsys, "universal", "dump", "--p", "4")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "p, text",
    [
        ("0", "p must be an integer >= 2, got 0"),
        ("1", "p must be an integer >= 2, got 1"),
        ("4", "p must be prime, got 4 = 2*2"),
        ("-2", "p must be an integer >= 2, got -2"),
    ],
)
def test_universal_dump_refuses_a_p_that_is_not_prime(capsys, p, text):
    code, out, err = run(capsys, "universal", "dump", "--p", p)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {text}"


def _subprocess_env() -> dict:
    """The environment of a `python -m wittlab` child that imports this
    checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_python_dash_m_wittlab_runs_the_cli(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "wittlab", "universal", "dump", "--p", "2"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, "universal", "dump", "--p", "2")
    assert code == 0
    assert proc.stdout == out


def test_a_reader_that_closes_the_pipe_early_is_not_an_error():
    """`wittlab perfect test --json | head -3`: stdout is a pipe whose read
    end is closed, so the first write fails, from print when stdout is
    unbuffered and from the last flush when it is buffered; either way the
    CLI exits 0, quietly."""
    env = _subprocess_env()
    for unbuffered in ("1", ""):
        env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wittlab", "perfect", "test", "--json"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0, (unbuffered, proc.stderr)
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, unbuffered


def test_arrow_norm_prints_its_json_keys(capsys):
    code, out, _ = run(capsys, "arrow", "norm", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"c", "norm"} and payload["c"] == 4
    assert set(payload["norm"]) == {"attained_at", "b", "exponent", "status", "tail", "terms"}
    assert payload["norm"]["exponent"] == "-2" and payload["norm"]["status"] == "exact"
    code, out, err = run(capsys, "arrow", "norm", "4", "--b", "x")
    assert code == 2
    assert out == "" and err.strip() == "error: not a rational number: 'x'"


@pytest.fixture
def short_ghost_suite(monkeypatch):
    """The ghost ring laws at 20 draws per law: they cover every prime, and at
    p = 7 the default 500 draws over Q(zeta_49) take ~20 s."""
    monkeypatch.setattr(suites, "_LAW_DRAWS", 20)


def _verify_all(capsys, p):
    code, out, _ = run(capsys, "verify", "all", "--p", str(p), "--json")
    report = json.loads(out)
    skipped = {
        c["name"]: c["detail"] for c in report["cases"] if c["detail"].startswith("skipped: ")
    }
    assert all(c["status"] == "inconclusive" for c in report["cases"] if c["name"] in skipped)
    return code, report, skipped


def test_verify_all_at_p2_skips_the_checks_without_a_p2_case(capsys, short_ghost_suite):
    code, report, skipped = _verify_all(capsys, 2)
    assert code == 0 and report["schema"] == 1
    assert skipped == {
        "artin.invariant_profiles": "skipped: --p 2: this check covers p in {3, 5, 7} only"
    }


_P2_ONLY = (
    "arrow.depth_lifting",
    "arrow.integer_rigidity",
    "tilt.charp_overconvergence",
    "tilt.untilt_isometry",
)


def test_verify_all_at_p5_runs_what_covers_5(capsys, short_ghost_suite):
    code, report, skipped = _verify_all(capsys, 5)
    assert code == 0
    two_three = "this check covers p in {2, 3} only"
    assert skipped == {
        **{
            name: f"skipped: --p 5: {two_three}"
            for name in (
                "arrow.mul_by_p_norm",
                "arrow.theta_map",
                "arrow.inverse_frobenius_sandwich",
                "perfect.frobenius_solving",
                "tilt.tilt_ring_laws",
                "kernel.kernel_norm",
            )
        },
        **{name: "skipped: --p 5: this check covers p in {2} only" for name in _P2_ONLY},
    }
    ran = {c["name"].split(".")[0] for c in report["cases"] if c["name"] not in skipped}
    assert ran == {"universal", "ghost", "norms", "perfect", "artin"}


def test_verify_all_at_p7_runs_what_covers_7(capsys, short_ghost_suite):
    code, report, skipped = _verify_all(capsys, 7)
    assert code == 0
    assert set(skipped) == {
        "universal.structure_polynomials",
        "norms.norm_laws",
        "arrow.mul_by_p_norm",
        "arrow.theta_map",
        "arrow.inverse_frobenius_sandwich",
        "perfect.perfect_verdicts",
        "perfect.frobenius_solving",
        "tilt.tilt_ring_laws",
        "kernel.kernel_norm",
        *_P2_ONLY,
    }
    assert skipped["perfect.perfect_verdicts"] == (
        "skipped: --p 7: this check covers p in {2, 3, 5} only"
    )
    ran = {c["name"].split(".")[0] for c in report["cases"] if c["name"] not in skipped}
    assert ran == {"ghost", "artin"}
    code, out, _ = run(capsys, "verify", "all", "--p", "7")
    assert code == 0
    assert (
        "  [inconclusive] kernel.kernel_norm: skipped: --p 7: this check covers p in {2, 3} only"
        in out.splitlines()
    )


def test_verify_all_refuses_a_prime_no_check_covers(capsys, monkeypatch):
    # every real prime is covered by the ghost ring laws, so keep two grid checks
    monkeypatch.setattr(
        suites,
        "_SUITES",
        {"kernel": suites._SUITES["kernel"], "artin": suites._SUITES["artin"]},
    )
    code, out, err = run(capsys, "verify", "all", "--p", "11")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: --p 11: suite all covers p in {2, 3, 5, 7} only"


# -- the output table -------------------------------------------------------------

# Per command: its exit code, then the first 16 hex digits of the sha256 of its
# stdout, in text and under --json.  The text of `verify` drops its header line,
# which carries the wall time.
_NO_OUTPUT = hashlib.sha256(b"").hexdigest()[:16]
# tilt rings over Z/2^2 and Z/3^2 at depth 2 and over Z[zeta_4]/2^2 at depth 1:
# `compute` runs the tilt's own parser, constants, arithmetic and formatter
_TILT_Z4 = '{"kind":"tilt","base":{"kind":"Zmod","p":2,"M":2},"depth":2}'
_TILT_Z9 = '{"kind":"tilt","base":{"kind":"Zmod","p":3,"M":2},"depth":2}'
_TILT_ZETA = '{"kind":"tilt","base":{"kind":"ZzetaMod","p":2,"k":2,"M":2},"depth":1}'
CLI_TABLE = [
    ("verify artin --p 7", 0, "cb2a852119a08f68", "b2a20ec8b74271a4"),
    ("verify kernel --p 3", 0, "0b27611596424996", "d1158fbfb0227566"),
    ("compute 'add (1,2) (3,4)'", 0, "5cfd9ba394293ad6", "20452aa27ce19932"),
    ("compute 'sub (1,2) (3,4)'", 0, "e36eddaeca8028b8", "c2c1e4cc5db4a6df"),
    ("compute 'mul (1,2) (3,4)'", 0, "d3e8de441b9523d5", "13e278b8ea7249c8"),
    ("compute 'neg (1,2)'", 0, "28c60bae40d2359c", "6ab1fb8bce242eb3"),
    ("compute 'frob (1,2,3)'", 0, "c1123e65a12cb4e6", "be25286d74ad7724"),
    ("compute 'versch (1,2)'", 0, "942f6c58180616ed", "f457d425e41f04b1"),
    ("compute 'ghost (1,2)'", 0, "050e92274c778d9c", "09fa0d45882ded01"),
    ("compute --ring Q 'unghost (1,2)'", 0, "19d4a7df99b03fe0", "af0a3dbcdd46104e"),
    ("compute 'wnorm (4,2)'", 0, "d5cf46f2a5f4ba24", "cb18185f8dfd0b88"),
    ("compute --ring ZzetaMod:2 --precision 3 'neg ([1,2]~2)'", 0, "5e87059b9173a03a", "461cd3409b040904"),
    # ghost runs the ring's own pow_ and mul; at 2^40 the digit bound 16 * (2^40 - 1)^2
    # is past an 8-byte slot, so the product is the schoolbook _conv
    (
        "compute --ring ZzetaMod:5 --precision 40 "
        "'ghost ([1099511627775, 3, 0, 5, 1099511627774], [7, 0, 1099511627775], [2, 4])'",
        0, "2fa20cd1d94f645f", "eef5926a0f223ada",
    ),
    (
        "compute --ring PerfPoly --p 2 --depth 2 'add (x^(1/4), 1, x, x^(3/4)) (x, x^(1/2), 1, x)'",
        0, "594adf4bab82bbff", "dd3c4c32c2741471",
    ),
    (
        "compute --ring PerfPoly --p 2 --depth 2 'mul (x^(1/4), 1, x, x^(3/4)) (x, x^(1/2), 1, x)'",
        0, "97d5e0adbd994678", "ca80bfbad3886ee8",
    ),
    ("compute --ring PerfPoly --p 2 --depth 2 'neg (x^(1/4), 1, x, x^(3/4))'", 0, "402bdb73b079d80f", "0a098ea4596c4a24"),
    (
        "compute --ring PerfPoly --p 3 --depth 2 'mul (x^(1/3) + 2, 2*x, x^(2/9)) (x + 1, x^(4/9), 2)'",
        0, "c0868db981c9f93f", "35292b2241b5f48a",
    ),
    # odd-p witt_neg negates componentwise through PerfPolyRing.neg
    ("compute --ring PerfPoly --p 3 --depth 2 'neg (x^(1/3) + 2, 2*x, x^(2/9))'", 0, "317dafbbbe367254", "3211d52442f92cfc"),
    ("universal dump --p 2", 0, "aed20f4582d8ff4d", "acd97a75b2699d1b"),
    ("arrow norm 4", 0, "faea398031bc0636", "9065359348ef84ea"),
    ("arrow norm 3 --b 1/2 --ring Qi --p 5", 0, "8fb61cc330a19e68", "5e162e5a0f786b5e"),
    # the text names the parsed weight, 1/2, as the JSON does
    ("arrow norm 3 --b 0.5", 0, "8fb61cc330a19e68", "5e162e5a0f786b5e"),
    ("arrow lift 3 --depth 1", 0, "4bc882fd838efc9d", "81bab9a2836dbaa7"),
    ("arrow lift 3 --ring ZzetaMod:2", 0, "f7e79f4e803d44bb", "6ab6a7f1e1faa5f3"),
    ("arrow theta 3", 0, "2022fd23f5eb4714", "1a97a06f88121edb"),
    ("arrow theta 5 --ring ZzetaMod:2 --p 2", 0, "433cfcae6ac43c6e", "f3c76c0fed3e4673"),
    ("arrow theta 3 --ring Z", 2, _NO_OUTPUT, _NO_OUTPUT),
    ("perfect test", 0, "9a09058faa933545", "e960b68f23040c43"),
    ("perfect test Zmod --p 3 --precision 2", 0, "3390f52d39f07de2", "e1e9b3c3120b7aae"),
    ("perfect test Qi --p 5", 0, "cf3c1db72a256c4b", "511ca5a40b52f3f9"),
    ("perfect test zeta-ring --p 3 --depth 1", 0, "5fbd7d628e448797", "1ab37edd53138ffa"),
    ("perfect test tower --p 2 --depth 1 --seed 1", 0, "9c1360dc5a5aed62", "0348bdd58b5406fe"),
    ("perfect solve-frob '(4, 0)'", 0, "406f572d48265b39", "ad3808e65c89aada"),
    ("perfect solve-frob '(1, 2, 3, 4, 5)' --precision 8", 0, "d4cb564d8481a986", "973ca2eb6f096ecc"),
    ("tilt add 5 7 --p 3 --depth 4", 0, "fac8c3c8e1ec36a4", "7d6e851e2aeda2b1"),
    ("tilt mul 5 4 --p 3 --depth 4", 0, "6b839a3d50eb043c", "9951ff424ace0ee6"),
    ("tilt norm '[0,1]' --ring ZzetaMod:2 --depth 2", 0, "49928d4d77a0cb20", "69df26e550654f0b"),
    ("tilt untilt 5 --p 3 --depth 3 --n 2", 0, "bf80a49f69b2937f", "388c74a3f534a96e"),
    ("tilt mul 3 2 --ring Z", 2, _NO_OUTPUT, _NO_OUTPUT),
    (f"compute --ring '{_TILT_Z4}' 'add ([1;1;3], [0;0;2]) ([1;1;1], [1;1;3])'", 0, "3a40d0927afecbd6", "4bd06783d13ec6be"),
    (f"compute --ring '{_TILT_Z4}' 'mul ([1;1;3], [0;0;2]) ([1;1;1], [1;1;3])'", 0, "de9c34de3d893cbd", "7d37e54cb6490653"),
    (f"compute --ring '{_TILT_Z4}' 'neg ([1;1;3], [0;0;2])'", 0, "de9c34de3d893cbd", "fa1fd1c532da4b93"),
    (f"compute --ring '{_TILT_Z9}' 'ghost ([1;1;1], [0;0;0])'", 0, "de9c34de3d893cbd", "25545e1a6bbd6baa"),
    (f"compute --ring '{_TILT_Z9}' 'neg ([1;1;1], [0;0;0])'", 0, "7ff06c7009feaa31", "2f593cc55abe04e1"),
    (
        f"compute --ring '{_TILT_ZETA}' 'add ([[0,2];[1,1]], [[1,0];[1,0]]) ([[1,0];[1,0]], [[0,2];[1,1]])'",
        0, "baf62060c2750bb1", "e00a0f370f0a8a6c",
    ),
    (f"compute --ring '{_TILT_Z9}' 'add ([1;2;1]) ([1;1;1])'", 2, _NO_OUTPUT, _NO_OUTPUT),
    ("kernel verify", 0, "451a1d7d523817b3", "2edf55417ec7d3d0"),
    ("kernel verify --ring Qi --p 5 --samples 4 --seed 2", 0, "be532172d7586d55", "73478515b573f90d"),
    ("kernel verify --ring Qzeta:2 --j 2 --samples 3", 0, "35838112b2e64e0f", "ee5f7555c34c797f"),
    ("artin classify --f i --p 3", 0, "025cdb50aa513fe8", "e1eb80465b31f13e"),
    ("artin classify --f 1/5 --p 5 --depth 2", 0, "4512456bd5c5b21b", "327010a9b57e5877"),
    ("artin classify --field Qzeta --f i", 2, _NO_OUTPUT, _NO_OUTPUT),
    ("artin classify --f i --depth -1", 2, _NO_OUTPUT, _NO_OUTPUT),
]

# the first stderr line of each refused command; every other command writes none
CLI_REFUSALS = {
    "arrow theta 3 --ring Z": "error: theta is defined over truncated bases; this ring is exact",
    "tilt mul 3 2 --ring Z": "error: tilting needs a truncated base with a digit budget; got Z",
    f"compute --ring '{_TILT_Z9}' 'add ([1;2;1]) ([1;1;1])'": (
        "error: chain entries 0/1 are not p-th-power coherent"
    ),
    "artin classify --field Qzeta --f i": (
        "error: classification is implemented over the Gaussian field only, got 'Qzeta'"
    ),
    "artin classify --f i --depth -1": (
        "error: ghost-constant profile depth must be an integer >= 0, got -1"
    ),
}


@pytest.mark.parametrize(
    "cmd, want_code, text_sha, json_sha",
    CLI_TABLE,
    ids=[re.sub(r"\W+", "-", r[0]).strip("-") for r in CLI_TABLE],
)
def test_cli_output_table(capsys, cmd, want_code, text_sha, json_sha):
    argv = shlex.split(cmd)
    for extra, want_sha in (((), text_sha), (("--json",), json_sha)):
        code, out, err = run(capsys, *argv, *extra)
        if argv[0] == "verify" and not extra:
            out = out.split("\n", 1)[1]
        assert code == want_code, (cmd, extra, err)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want_sha, (cmd, extra, out)
        assert (err.splitlines() or [""])[0] == CLI_REFUSALS.get(cmd, ""), (cmd, extra)
