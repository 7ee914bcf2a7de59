"""The CLI's answers on the zoo, pinned: every exit code and every printed record of
``classify`` and ``spectrum`` on the 8 zoo kicks, ``zeno-check --hamiltonian random:0..4`` on
all 8, and ``dd-check --d1 2 --hamiltonian random:0..4`` on those with 2d <= 8, from
in-process ``cli.main`` calls. Booleans, integers, strings, keys and list order must match
exactly, and every float within 1e-12.

The key, ``data/cli_answer_key.json``, is rewritten only when an answer is meant to change:

    PYTHONPATH=src python tests/test_cli_answer_key.py
"""

import contextlib
import io
import json
from pathlib import Path

from bathdd.cli import main
from bathdd.zoo import builtin, names

KEY = Path(__file__).parent / "data" / "cli_answer_key.json"
SEEDS = range(5)
FLOAT_TOL = 1e-12


def calls() -> list[list[str]]:
    out = []
    for name in names():
        kick = f"zoo:{name}"
        out += [["classify", kick], ["spectrum", kick]]
        out += [["zeno-check", kick, "--hamiltonian", f"random:{s}"] for s in SEEDS]
        if 2 * builtin(name).channel.dim <= 8:
            out += [["dd-check", kick, "--d1", "2", "--hamiltonian", f"random:{s}"]
                    for s in SEEDS]
    return out


def answer(argv: list[str]) -> dict:
    """The exit code of ``cli.main(argv)`` and its standard output, parsed as JSON."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    text = stdout.getvalue()
    return {"argv": argv, "exit": code, "stdout": json.loads(text) if text else None}


def assert_same(got, want, path="answer"):
    assert type(got) is type(want), f"{path}: {got!r} is no {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for k in want:
            assert_same(got[k], want[k], f"{path}[{k!r}]")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_cli_answers_match_the_committed_key():
    want = json.loads(KEY.read_text())
    assert [w["argv"] for w in want] == calls()
    for w in want:
        assert_same(answer(w["argv"]), w, " ".join(w["argv"]))


if __name__ == "__main__":
    KEY.write_text(json.dumps([answer(argv) for argv in calls()], indent=1) + "\n")
