"""A seeded mutation fuzz of the CLI: 1-3 character edits of the arguments of
the non-``verify`` rows of ``CLI_TABLE``; and a size sweep of the same rows,
which writes a 3000-digit negative, 0, 10^8 and a 3000-digit number into
each number-valued token, one at a time: an integer, whether a flag's value
or a positional, a ring spec's ``:n`` and a rational flag value, which also
takes 1 over a 3000-digit number.  An edit of 1-3 characters reaches
neither.

Every edited or swept argv must exit 0 or 2, and an exit 2 prints exactly
one ``error:`` line, under 200 bytes: a refusal, never a traceback, a raw
exception, a memory kill, a hang or a number echoed whole.  The cases run in
process, through ``cli.main``, inside one child that sets its own
address-space limit and a per-case alarm, so a budget that fails to hold
ends in a finding rather than on the host.  Hypothesis draws the edits from
a fixed seed and example count, and the sweep is a fixed list, so the argvs
are the same on every run; a finding names its argv.
"""

import json
import re
import shlex
import subprocess
import sys

import pytest

from test_cli import CLI_TABLE, _subprocess_env

ROWS = [shlex.split(cmd) for cmd, *_ in CLI_TABLE if not cmd.startswith("verify")]

SIZES = ["-" + "7" * 3000, "0", str(10**8), "7" * 3000]
# a rational token also takes a 3000-digit denominator
RATIONAL_SIZES = SIZES + ["1/" + "7" * 3000]
_RING_ARGUMENT = re.compile(r"([A-Za-z]+:)[0-9]+")


def _swept(row):
    """Each argv with one number-valued token of the row replaced: an
    integer, a flag's value or a positional, or a ring spec's ``:n`` by one
    of ``SIZES``, and a rational flag value by one of ``RATIONAL_SIZES``."""
    for i in range(1, len(row)):
        flag, token = row[i - 1], row[i]
        head = _RING_ARGUMENT.fullmatch(token) if flag == "--ring" else None
        if head is not None:
            values = [head[1] + value for value in SIZES]
        elif re.fullmatch(r"-?[0-9]+", token):
            values = SIZES
        elif flag.startswith("--") and re.fullmatch(r"-?[0-9]+[/.][0-9]+", token):
            values = RATIONAL_SIZES
        else:
            continue
        for value in values:
            yield row[:i] + [value] + row[i + 1 :]


SWEEP = [argv for row in ROWS for argv in _swept(row)]

_CHILD = r"""
import contextlib, io, json, resource, signal, sys, time

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

from hypothesis import HealthCheck, Phase, given, seed, settings, strategies as st

from wittlab.cli import main

ROWS, SWEEP = json.loads(sys.stdin.read())
SEED, EXAMPLES, CASE_SECONDS = 20261021, 300, 2.0
# the characters an edit inserts or writes: the grammar's own, a letter, a
# space and a non-ASCII digit
ALPHABET = list("0123456789-+/.,;:()[]{}~^*x i\"'") + ["٣"]


class Timeout(BaseException):
    pass


def on_alarm(*_):
    raise Timeout


signal.signal(signal.SIGALRM, on_alarm)


def edited(row, edits):
    argv = list(row)
    for t, kind, at, ch in edits:
        token = argv[t]
        if kind == "insert" or not token:
            at = min(at, len(token))
            argv[t] = token[:at] + ch + token[at:]
        else:
            at = min(at, len(token) - 1)
            argv[t] = token[:at] + ("" if kind == "delete" else ch) + token[at + 1:]
    return argv


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals and --help
                code = exc.code or 0
    except Timeout:
        return "timeout"
    except BaseException as exc:
        return f"raised {type(exc).__name__}: {str(exc)[:80]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if code not in (0, 2):
        return f"exit {code}"
    if code == 2 and len(errors) != 1:
        return f"exit 2 with {len(errors)} error lines"
    if code == 2 and len(errors[0].encode()) >= 200:
        return f"a {len(errors[0].encode())}-byte error line: {errors[0][:80]}"
    return None


cases, findings = [], []


def edits(row):
    # an edit: a token of the row, insert/delete/replace, a position in it
    # (clamped to the token) and a character
    token = st.integers(0, len(ROWS[row]) - 1).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, len(ROWS[row][t])),
            st.sampled_from(ALPHABET),
        )
    )
    return st.tuples(st.just(row), st.lists(token, min_size=1, max_size=3))


@seed(SEED)
@settings(
    max_examples=EXAMPLES,
    database=None,
    deadline=None,
    phases=[Phase.generate],
    suppress_health_check=list(HealthCheck),
)
@given(st.integers(0, len(ROWS) - 1).flatmap(edits))
def fuzz(case):
    row, row_edits = case
    argv = edited(ROWS[row], row_edits)
    cases.append(argv)
    finding = outcome(argv)
    if finding:
        findings.append({"argv": argv, "finding": finding})


start = time.perf_counter()
fuzz()
swept = [{"argv": [a[:40] for a in argv], "finding": f} for argv in SWEEP if (f := outcome(argv))]
print(json.dumps({
    "cases": len(cases),
    "distinct": len({tuple(a) for a in cases}),
    "findings": findings,
    "swept": swept,
    "seconds": round(time.perf_counter() - start, 2),
}), file=sys.__stdout__)
"""


@pytest.fixture(scope="module")
def report():
    """The child's report of both runs, the fuzz and the sweep."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=json.dumps([ROWS, SWEEP]), env=_subprocess_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_edited_cli_table_rows_exit_zero_or_two_with_one_error_line(report):
    assert report["findings"] == [], report["findings"]
    # the fixed seed draws every case at least once, and mostly distinct ones
    assert report["cases"] == 300 and report["distinct"] >= 250, report


def test_swept_cli_table_rows_exit_zero_or_two_with_one_short_error_line(report):
    assert report["swept"] == [], report["swept"]
    # four values for each of the rows' 57 integers, flag values and
    # positionals, and 6 ring arguments; five for each of 3 rational flag values
    assert len(SWEEP) == 4 * (57 + 6) + 5 * 3
