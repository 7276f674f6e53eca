"""The public entries: each takes its integers only through
``operator.index``, and refuses what it cannot count exactly with its own
exception and message before it does any work.

``_ENTRIES`` holds, for each entry, a call, the arguments of one good call,
the argument paths that also take a whole float, and the entry's
refusals as rows (bad arguments, exception, a literal part of the
message).  A ceiling that moves is one row per entry.
"""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rfree.multiplicative as mult
from rfree import (ConfigError, ResourceLimitError, count_r_free_bruteforce, count_r_free_in_progression,
                   decompose, error_term, is_r_free, mobius_sieve, mu_r_direct, r_free_counts, save_cache,
                   sieve, trial_factorize, zeta)
from rfree.harness import ExperimentConfig, class_counts, modulus_threshold, run_experiment
from rfree.multiplicative import f_value, tau_partial_sum_check, tau_value
from rfree.progressions import decompose_many, lemma_bound_probe, main_term
from rfree.residues import count_solutions, count_solutions_bruteforce, counts_vector, per_modulus_maxima

CLASS = "need k >= 1 and 0 <= l < k"  # the one rule of _check_class
OUTSIDE = "outside [0, 2**32)"


def _saved(path, limit, rs):
    """save_cache's totals and the bytes it wrote, with the file removed."""
    totals = save_cache(path, limit, rs)
    data = Path(path).read_bytes()
    Path(path).unlink()
    return totals, data


def _validated(*args):
    config = ExperimentConfig(*args)
    config.validate()
    return config


def _entry(call, args, *refusals, whole=()):
    return call, args, whole, refusals


_ENTRIES = {
    "count_r_free_in_progression": _entry(count_r_free_in_progression, (1000, 2, 12, 5),
        ((2**32, 2, 3, 1), ValueError, f"x=4294967296 {OUTSIDE}"),
        ((-1, 2, 3, 1), ValueError, f"x=-1 {OUTSIDE}"),
        ((100, 1, 3, 1), ValueError, "r must be >= 2, got 1"),
        ((100, 2, 0, 0), ValueError, f"bad progression k=0, l=0: {CLASS}"),
        ((100, 2, 3, 3), ValueError, f"bad progression k=3, l=3: {CLASS}"),
        ((100, 2, 7, 7), ValueError, f"bad progression k=7, l=7: {CLASS}")),
    # unchecked, the oracle gave 22 for (3, 5), a class it does not name, and
    # for (3, -1) the count 15 of the zero class
    "count_r_free_bruteforce": _entry(count_r_free_bruteforce, (1000, 2, 12, 5),
        ((100, 2, 3, 5), ValueError, f"bad progression k=3, l=5: {CLASS}"),
        ((100, 2, 3, -1), ValueError, f"bad progression k=3, l=-1: {CLASS}")),
    "main_term": _entry(main_term, (1000, 2, 12, 5),
        ((100, 2, 4, 0), ValueError, "gcd(l, k) = 4 is not 2-free; the main term is undefined"),
        ((100, 64, 2**40, 2**39), ValueError, "r must be below 64, got 64"),  # before any p**r
        ((100, 10**11, 2**40, 2**39), ValueError, "r must be below 64, got 100000000000"),
        ((100, 2, 0, 0), ValueError, f"bad progression k=0, l=0: {CLASS}"),
        ((-1, 2, 3, 1), ValueError, "x must be >= 0, got -1")),
    # the range is checked even for the zero convention of (4, 0)
    "error_term": _entry(error_term, (1000, 2, 12, 5),
        ((2**32, 2, 4, 0), ValueError, f"x=4294967296 {OUTSIDE}"),
        ((-1, 2, 4, 0), ValueError, f"x=-1 {OUTSIDE}"),
        ((100, 1, 4, 0), ValueError, "r must be >= 2, got 1"),
        ((100, 2, 7, -1), ValueError, f"bad progression k=7, l=-1: {CLASS}")),
    "decompose": _entry(decompose, (1000, 2, 12, 5, 3.0),
        ((100, 2, 4, 2, 0.5), ValueError, "z must be a finite number >= 1, got 0.5"),
        ((100, 2, 4, 2, math.nan), ValueError, "z must be a finite number >= 1, got nan"),
        ((100, 2, 4, 2, math.inf), ValueError, "z must be a finite number >= 1, got inf"),
        ((100, 2, 4, 2, -math.inf), ValueError, "z must be a finite number >= 1, got -inf"),
        ((100, 2, 4, 0, 2.0), ValueError, "gcd(l, k) = 4 is not 2-free")),
    # every trial is checked before any is split
    "decompose_many": _entry(decompose_many, (1000, 2, [(12, 5, 3.0), (12, 1, 2.0)]),
        ((1000, 2, [(7, 3, 2.0), (7, 3, math.nan)]), ValueError, "z must be a finite number >= 1, got nan"),
        ((1000, 2, [(7, 3, 2.0), (7, 7, 2.0)]), ValueError, f"bad progression k=7, l=7: {CLASS}"),
        ((1000, 2, [(7, 3, 2.0), (8, 4, 2.0)]), ValueError, "gcd(l, k) = 4 is not 2-free"),
        ((100, 2, [(7, 7, 2.0)]), ValueError, f"bad progression k=7, l=7: {CLASS}")),
    "lemma_bound_probe": _entry(
        lambda k, l: lemma_bound_probe(decompose(1000, 2, 12, 5, 3.0)._replace(k=k, l=l)), (12, 5)),
    "class_counts": _entry(class_counts, (1000, 2, 12),
        ((100, 1, 3), ValueError, "r must be >= 2, got 1"),
        ((2**32, 2, 3), ValueError, f"x=4294967296 {OUTSIDE}"),
        ((-1, 2, 3), ValueError, f"x=-1 {OUTSIDE}"),
        ((100, 2, 0), ValueError, "k must be >= 1, got 0")),
    "count_solutions": _entry(count_solutions, (3, 1, 91),
        ((2, 12, 12), ValueError, "need 0 <= a < s, got a=12, s=12"),
        ((1, 0, 5), ValueError, "r must be >= 2, got 1"),
        ((2, 0, 0), ValueError, "s must be >= 1, got 0")),
    "count_solutions_bruteforce": _entry(count_solutions_bruteforce, (3, 1, 91),
        ((2, 1, 0), ValueError, "s must be >= 1, got 0"),
        ((2, 5, 3), ValueError, "need 0 <= a < s, got a=5, s=3"),
        ((0, 1, 5), ValueError, "r must be >= 1, got 0")),
    "counts_vector": _entry(counts_vector, (3, 91)),
    "per_modulus_maxima": _entry(lambda r, s_max: list(per_modulus_maxima(r, s_max)), (3, 2000),
        ((2, 1), ValueError, "s_max must be >= 2, got 1")),
    "tau_value": _entry(tau_value, (3, 12),
        ((0, 12), ValueError, "r must be >= 1, got 0")),
    "tau_partial_sum_check": _entry(tau_partial_sum_check, (3, [1000]),
        ((0, [10]), ValueError, "r must be >= 1, got 0"),
        ((-3, [10]), ValueError, "r must be >= 1, got -3"),
        ((2, [2]), ValueError, "each x must be >= 3, got 2"),
        ((2, []), ValueError, "xs must be nonempty"),
        # x (log x)^(r - 1) overflows: refused before any of its r - 1 levels
        ((2**62, [3]), OverflowError, "x * (log x)^4611686018427387903 overflows a float"),
        ((2, [10, 2**32]), ResourceLimitError, "x=4294967296 is not below 2**32"),
        # (r - 2) x^(3/4) summed over the xs past 2**25 steps
        ((200, [4 * 10**9, 3]), ResourceLimitError, "more than the budget of 33554432"),
        ((5, [2**32 - 1]), ResourceLimitError, "more than the budget of 33554432"),
        ((4, [2**32 - 1, 2**32 - 1]), ResourceLimitError, "more than the budget of 33554432")),
    "mu_r_direct": _entry(mu_r_direct, (72, 3),
        ((0, 2), ValueError, "n must be >= 1, got 0"),
        ((5, 1), ValueError, "r must be >= 2, got 1")),
    # ExperimentConfig(*args), then its validate()
    "ExperimentConfig": _entry(_validated, (2, 1.0, [10**4]),
        ((1, 1.0, (10**4,)), ConfigError, "r must be >= 2, got 1"),
        ((64, 1.0, (10**4,)), ConfigError, "r must be below 64, got 64"),
        ((10**11, 1.0, (10**4,)), ConfigError, "r must be below 64, got 100000000000"),
        ((63, 0.01, (2**32 - 1,)), ConfigError, "r=63, A=0.01; use a larger x or a smaller A"),
        ((2, 0.0, (10**4,)), ConfigError, "A must be > 0, got 0.0"),
        ((2, 1.0, ()), ConfigError, "xs must be nonempty"),
        ((2, 1.0, (10**5, 10**4)), ConfigError, "xs must be strictly increasing"),
        ((2, 9.0, (10**4,)), ConfigError, "use a larger x or a smaller A"),  # vacuous
        ((2, 1.0, (10**4,), "cpu"), ConfigError, "timing must be 'wall' or 'none', got cpu"),
        ((2, 1.0, (2,)), ConfigError, "each x must be >= 3, got 2"),
        whole=((2, 0),)),
    "run_experiment": _entry(  # of ExperimentConfig(*args)
        lambda *args: run_experiment(ExperimentConfig(*args)), (2, 1.0, [10**4], "none"),
        ((2, 1.0, (10**4, 2**32)), ResourceLimitError, "x=4294967296 is not below 2**32"),
        whole=((2, 0),)),
    "modulus_threshold": _entry(modulus_threshold, (10**4, 2, 1.0),
        ((10, 2, 5.0), ConfigError, "r=2, A=5.0; use a larger x or a smaller A"),
        ((2, 2, 1.0), ValueError, "x must be >= 3, got 2"),
        ((10**4, 1, 1.0), ValueError, "r must be >= 2, got 1")),
    "mobius_sieve": _entry(mobius_sieve, (100,),
        ((0,), ValueError, "limit must be >= 1, got 0"),
        ((2**32,), ResourceLimitError, "not below 2**32, the range in which the int64 Mobius sums"),
        # below 2**32 but one byte per n over the 2 GiB budget
        ((2_200_000_000,), ResourceLimitError, "exceeding the memory budget of 2147483648 bytes")),
    "f_value": _entry(f_value, (2, 12),
        ((2, 0), ValueError, "k must be >= 1, got 0"),
        ((1, 10), ValueError, "r must be >= 2, got 1")),
    "is_r_free": _entry(is_r_free, (12, 2),
        ((0, 2), ValueError, "need n >= 1 and r >= 2"),
        ((4, 1), ValueError, "need n >= 1 and r >= 2")),
    "r_free_counts": _entry(r_free_counts, ([100], 2),
        (([10], 1), ValueError, "r must be >= 2, got 1"),
        (([10, -1], 2), ValueError, f"x=-1 {OUTSIDE}"),
        # 2**40 would take about 10^6 passes of the window
        (([2**32], 2), ValueError, f"x=4294967296 {OUTSIDE}"),
        (([10, 2**40], 2), ValueError, f"x=1099511627776 {OUTSIDE}"),
        (([], 1), ValueError, "r must be >= 2, got 1"),  # r is checked even when xs is empty
        (([], 2.0), TypeError, "'float' object cannot be interpreted as an integer")),
    "save_cache": _entry(_saved, ("c.rfsv", 100, [2]),
        (("c.rfsv", 10, {1}), ValueError, "r must be >= 2, got 1"),
        (("c.rfsv", -1, {2}), ValueError, f"x=-1 {OUTSIDE}"),
        (("c.rfsv", 2**32, {2}), ValueError, f"x=4294967296 {OUTSIDE}")),
    "trial_factorize": _entry(trial_factorize, (12,),
        ((0,), ValueError, "n must be >= 1, got 0")),
    # a float r would read the table entry of another r
    "zeta": _entry(zeta, (2,),
        ((1,), ValueError, "r must be >= 2 (series diverges at r=1), got 1")),
}

_REFUSALS = [
    pytest.param(name, args, exc, message, id=f"{name}({', '.join(map(repr, args))})")
    for name, (_, _, _, refusals) in _ENTRIES.items()
    for args, exc, message in refusals
]


@pytest.mark.parametrize("name,args,exc,message", _REFUSALS)
def test_refusal(name, args, exc, message, tmp_path, monkeypatch):
    # refused before any work: no window of flags, no tau level, under 1 MiB
    # allocated (no table is made) and no file written
    def no_work(*_):
        raise AssertionError("worked before the refusal")

    monkeypatch.setattr(sieve, "_r_powers", no_work)
    monkeypatch.setattr(mult, "_tau_sum", no_work)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(exc, match=re.escape(message)):
            _ENTRIES[name][0](*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert list(tmp_path.iterdir()) == []


def test_each_entry_admits_its_edges(monkeypatch):
    assert r_free_counts([], 2) == [] and r_free_counts([100], 2) == [61]
    assert class_counts(0, 2, 3).tolist() == [0, 0, 0]  # R(0; k, l) = 0
    assert decompose_many(1000, 2, []) == []
    assert trial_factorize(12).factors == ((2, 2), (3, 1))
    _validated(2, 1.0, (2**32 - 1,))
    # the cost rule admits r = 4 at any x below 2**32
    monkeypatch.setattr(mult, "_tau_sum", lambda r, x: x)
    for r, xs in ((4, [2**32 - 1]), (3, [2**32 - 1]), (1000, [3]), (20, [10**4]), (150, [8192])):
        assert [row.total for row in tau_partial_sum_check(r, xs)] == xs


def _ints(value, path=()):
    """(path, v) for each int v in value, inside tuples and lists."""
    if isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _ints(v, (*path, i))
    elif type(value) is int:
        yield path, value


def _put(value, path, new):
    """value with its item at path (as ``_ints`` gives it) set to new."""
    if not path:
        return new
    items = list(value)
    items[path[0]] = _put(items[path[0]], path[1:], new)
    return type(value)(items)


def _typed(value):
    """value with the type of every scalar in it, so 12 and 12.0 differ."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_typed(v) for v in value]
    return type(value), value


@pytest.mark.parametrize("name", _ENTRIES)
def test_every_entry_takes_integers_only(name, tmp_path, monkeypatch):
    # each rule takes its integers through operator.index and the code uses
    # only what it returns: unchecked, main_term(1000, 2, 12, 5.5) gave the
    # value at l = 5, count_solutions(2.5, 0, 8) a count of 2.0, decompose
    # with numpy k and l failed inside the split on pow, r_free_counts([100.7],
    # 2) gave [61], the count at 100, and f_value(2, 12.5) a value with a
    # 1e-13 budget; trial_factorize caches 12 first, so 12.0 must not find it
    call, args, whole, _ = _ENTRIES[name]
    monkeypatch.chdir(tmp_path)
    expected = _typed(call(*args))
    for path, v in _ints(args):
        for bad in (v + 0.5, float(v)):
            if bad == v and path in whole:
                assert _typed(call(*_put(args, path, bad))) == expected
                continue
            with pytest.raises(TypeError):
                call(*_put(args, path, bad))
    for kind in (np.int64, np.uint32, np.int8):  # int8 where the value fits
        numpy_args = args
        for path, v in _ints(args):
            if v <= np.iinfo(kind).max:
                numpy_args = _put(numpy_args, path, kind(v))
        assert _typed(call(*numpy_args)) == expected, kind
    assert list(tmp_path.iterdir()) == []  # no entry leaves a file
