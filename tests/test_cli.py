"""The command-line front end, driven through ``main``: exit codes and JSON keys."""

import json

from wittlab.cli import main


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


def test_kernel_verify_over_a_gaussian_ring(capsys):
    code, out, _ = run(capsys, "kernel", "verify", "--ring", "Qi", "--p", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"j", "failures", "results"}
    assert payload["j"] == 1
    assert payload["failures"] == 0
    assert len(payload["results"]) == 10
    assert all(r["passed"] for r in payload["results"])
