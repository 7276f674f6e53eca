"""Start-up cost: a command imports only the layers it runs, and the
result and settings types are plain named tuples, so no command loads
``dataclasses`` (which loads ``inspect``).  The process entry runs with
the cyclic collector off, which is free only while no command makes
reference cycles."""

import gc
import hashlib
import importlib
import sys

import pytest

import rfree
from conftest import run_python, run_rfree
from rfree import (
    ExperimentConfig,
    Factorization,
    count_solutions,
    decompose,
    error_term,
    f_value,
)
from rfree import cli
from rfree.cli import main


def _imported(stderr: str) -> set[str]:
    """The modules a ``python -X importtime`` process reported loading."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_help_refusal_and_residues_load_no_numpy(capsys):
    traced = ("-X", "importtime")
    done = run_rfree("--help", python_flags=traced)
    assert done.returncode == 0 and "usage: rfree" in done.stdout
    # ``python -m`` runs rfree/cli.py as __main__; parsing needs only errors
    assert {name for name in _imported(done.stderr) if name.startswith("rfree.")} == {
        "rfree.errors"
    }
    assert "numpy" not in _imported(done.stderr)
    assert "dataclasses" not in _imported(done.stderr)
    assert "decimal" not in _imported(done.stderr)  # loaded by the first integer option

    # refused by argparse (SystemExit in main) and by the command (main returns 2)
    for argv in (["sieve", "--limit", "abc", "--r", "2"],
                 ["residues", "--r", "3", "--s-max", "4294967296"]):
        done = run_rfree(*argv, python_flags=traced)
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert "numpy" not in _imported(done.stderr)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (2, ""), argv

    # a large stdout comes through the process entry byte for byte
    argv = ["residues", "--r", "3", "--s-max", "1e5"]
    done = run_rfree(*argv, python_flags=traced)
    assert done.returncode == 0
    assert "numpy" not in _imported(done.stderr)
    assert "dataclasses" not in _imported(done.stderr)
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "355e2b677494088ec23ec5a5b4b941c829ded0b9b186b7f8d93246bcf2563cdc")

    # zeta(r) is pinned for every r, so f sums no series and loads no numpy
    for r in ("2", "3", "7", "60"):
        argv = ["f", "--r", r, "--k", "12"]
        done = run_rfree(*argv, python_flags=traced)
        assert done.returncode == 0, done.stderr
        assert "numpy" not in _imported(done.stderr), argv
        assert "dataclasses" not in _imported(done.stderr)
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out

    # a command that needs numpy still loads it and runs
    argv = ["bv-sum", "--r", "2", "--A", "1", "--x", "1e4,1e5", "--timing", "none"]
    done = run_rfree(*argv, python_flags=traced)
    assert done.returncode == 0, done.stderr
    assert "numpy" in _imported(done.stderr)
    assert "dataclasses" not in _imported(done.stderr)
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_bv_sum_and_sieve_load_only_their_layers(capsys):
    # the sweep reads mu, the d-terms and the main term from sieve and
    # multiplicative; the sieve command needs neither the split nor the sweep
    for argv, absent in (
        (["bv-sum", "--r", "3", "--A", "1", "--x", "1e4,1e5", "--timing", "none"],
         {"rfree.progressions"}),
        (["sieve", "--limit", "1e5", "--r", "2,3"],
         {"rfree.progressions", "rfree.harness", "rfree.residues"}),
        # the always-split error path loads the split but not the sweep
        (["error", "--x", "1e5", "--r", "2", "--k", "7", "--l", "3"],
         {"rfree.harness", "rfree.residues"}),
    ):
        done = run_rfree(*argv, python_flags=("-X", "importtime"))
        assert done.returncode == 0, done.stderr
        assert "rfree.sieve" in _imported(done.stderr)
        assert not absent & _imported(done.stderr), argv


def test_tau_sum_loads_no_numpy(capsys):
    argv = ["tau-sum", "--r", "3", "--x", "1e4,1e6"]
    done = run_rfree(*argv, python_flags=("-X", "importtime"))
    assert done.returncode == 0, done.stderr
    assert "numpy" not in _imported(done.stderr)
    assert "dataclasses" not in _imported(done.stderr)
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_main_leaves_the_collector_alone_and_entry_turns_it_off(monkeypatch, capsys):
    frozen = gc.get_freeze_count()
    for argv in (["f", "--r", "3", "--k", "12"], ["residues", "--r", "3", "--s-max", "0"]):
        main(argv)
        assert gc.isenabled() and gc.get_freeze_count() == frozen, argv
    monkeypatch.setattr(sys, "argv", ["rfree", "f", "--r", "3", "--k", "12"])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0
        assert not gc.isenabled() and gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
        gc.enable()
    assert capsys.readouterr().out.splitlines()[-1] == "0.987318639986"


# Each command runs a small and then a larger argv with the collector off;
# the objects gc.collect() finds unreachable after each must be the same
# number, the parser's that build_parser makes, whatever the size.
_CYCLE_CHECK = """
import contextlib, gc, io
import numpy, rfree.harness, rfree.progressions, rfree.residues
from rfree.cli import build_parser, main

gc.disable()
gc.collect()  # what the imports left
build_parser()
parser = gc.collect()
for small, large in CASES:
    found = []
    for argv in (small, large):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv.split()) == 0, argv
        found.append(gc.collect())
    print(small, found, parser)
    assert found == [parser, parser], (small, found, parser)
"""


def test_no_command_makes_reference_cycles():
    cases = [
        ("sieve --limit 1e4 --r 2,3", "sieve --limit 1e6 --r 2,3"),
        ("error --x 1e4 --r 2 --k 7 --l 3 --z 10", "error --x 1e6 --r 3 --k 36 --l 5 --z 50"),
        ("bv-sum --r 2 --A 1 --x 1e4", "bv-sum --r 2 --A 1 --x 1e5,1e6"),
        ("verify-lemmas --x 1e4 --r 2 --trials 10", "verify-lemmas --x 1e6 --r 3 --trials 1000"),
        ("tau-sum --r 3 --x 1e3", "tau-sum --r 3 --x 1e4,1e6"),
        ("residues --r 3 --s-max 100", "residues --r 3 --s-max 1e4"),
        ("f --r 3 --k 12", "f --r 5 --k 720720"),
    ]
    # its own process, so this one keeps its collector
    done = run_python("-c", f"CASES = {cases!r}\n{_CYCLE_CHECK}", timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == len(cases)


def _value_of_each_type():
    """One value of each result and settings type, built twice apart."""
    yield lambda: Factorization(n=12, factors=((2, 2), (3, 1)))
    yield lambda: f_value(3, 12)
    yield lambda: count_solutions(3, 1, 63)
    yield lambda: error_term(10**4, 2, 12, 5)
    yield lambda: decompose(10**4, 2, 12, 5, 3.0)
    yield lambda: ExperimentConfig(r=2, log_power=1.0, xs=[1e4, 10**5])


@pytest.mark.parametrize("make", list(_value_of_each_type()))
def test_value_types_compare_hash_and_refuse_assignment(make):
    one, two = make(), make()
    assert one == two and hash(one) == hash(two)
    field = type(one)._fields[0]
    with pytest.raises(AttributeError):
        setattr(one, field, 1)
    with pytest.raises(AttributeError):
        one.extra = 1  # no instance dict either


def test_value_type_constructors_still_normalise():
    # a wrong product is refused: tests/test_sieve.py
    assert Factorization(n=12, factors=((2, 2), (3, 1))).omega == 2
    config = ExperimentConfig(r=2, log_power=1.0, xs=[1e4, 10**5])
    assert config.xs == (10_000, 100_000) and all(type(x) is int for x in config.xs)
    assert config.timing == "wall"
    assert ExperimentConfig(2, 1.0, (10**4,), "none").timing == "none"


def test_lazy_exports_resolve_to_their_definitions():
    for name in rfree.__all__:
        obj = getattr(rfree, name)
        assert obj.__name__ == name
        assert obj.__module__.startswith("rfree.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace = {}
    exec("from rfree import *", namespace)
    assert set(rfree.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(rfree, name) for name in rfree.__all__)
    assert set(rfree.__all__) <= set(dir(rfree))
    with pytest.raises(AttributeError, match="no_such_name"):
        rfree.no_such_name
