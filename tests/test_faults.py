"""Which command's checks see which fault.

``FAULTS`` patches one program function each, by wrapping it or through
its source.  ``test_fault`` runs a row's argv with ``rfree.cli.main``,
clean and then under its fault, and expects exit 3 with a stderr that
matches the row's pattern, or (``UNCHANGED``) exit 0 with the clean
stdout.  The rows of a fault that no check sees yet are strict xfails
naming the ROADMAP item that closes it, so closing it flips them.
``fault_table`` renders the rows as README's table; running this file
prints it.
"""

import functools
import inspect
import re

import pytest

import rfree.harness as harness
import rfree.multiplicative as multiplicative
import rfree.progressions as progressions
import rfree.residues as residues
from rfree import SelfCheckError, count_r_free_bruteforce, count_solutions, error_term, sieve
from rfree import modulus_threshold, r_free_counts
from rfree.cli import main

UNCHANGED = None
K_1E4 = modulus_threshold(10**4, 2, 0.5)  # the largest counted modulus
MOBIUS_FLIPS = ({997: 1}, {30: 1}, {9998: -1, 9994: 1})  # mu(n) = value for each n


def _wrap(monkeypatch, name, fake, *modules):
    """Set ``name`` in each module to ``fake`` with the function it replaces
    as its first argument."""
    true = getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name, functools.partial(fake, true))


def _from_source(monkeypatch, module, name, old, new, *also):
    """Set ``name`` in module, and in each module of ``also`` that imports
    it, to its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(getattr(module, name))
    assert old in source
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    for each in (module, *also):
        monkeypatch.setattr(each, name, namespace[name])


def wrong_mobius(monkeypatch, changes):
    """``sieve.mobius_sieve`` with mu(n) = value for each n, value of ``changes``."""
    def wrong(true, limit):
        mu = true(limit).copy()
        mu[list(changes)] = list(changes.values())
        return mu

    _wrap(monkeypatch, "mobius_sieve", wrong, sieve)


def _short(true, top, r):  # the largest p^r <= top is lost
    dense, sparse = true(top, r)
    return (dense, sparse[:-1]) if sparse.size else (dense[:-1], sparse)


def _middle_small_plus_one(true, *args):
    sums = true(*args)
    small, large = sums[len(sums) // 2]
    sums[len(sums) // 2] = (small + 1, large)
    return sums


def _off_by_one(true, terms, k):  # one more in class 1 of the largest counted modulus
    counts = true(terms, k)
    counts[1] += k == K_1E4
    return counts


def _boom(config):
    raise SelfCheckError("forced for the exit-code contract")


FAULTS = {
    "drop_last_prime_power": lambda mp: _wrap(mp, "_r_powers", _short, sieve),
    **{f"mobius_flips{c}": functools.partial(wrong_mobius, changes=c) for c in MOBIUS_FLIPS},
    "split_small_plus_one": lambda mp: _wrap(mp, "_split_sums", _middle_small_plus_one, progressions),
    "count_classes_off_by_one": lambda mp: _wrap(mp, "_count_classes", _off_by_one, harness),
    "forced_self_check": lambda mp: mp.setattr(harness, "run_experiment", _boom),
    # the gcd(r, q - 1) of a prime q above sqrt(s_max) is dropped, so N(q) reads 1
    "maxima_without_large_prime": lambda mp: _from_source(
        mp, residues, "per_modulus_maxima", "c *= math.gcd(r, q - 1)", "pass"),
    "f_value_scaled": lambda mp: _wrap(
        mp, "f_value", lambda true, r, k: (fv := true(r, k))._replace(value=fv.value * (1 + 1e-6)),
        multiplicative, progressions, harness),
    # each partial period of the sweep's tally starts one m late: every total holds
    "tally_one_late": lambda mp: _wrap(mp, "_tally", lambda true, c, m, *a: true(c, m + 1, *a), harness),
    # small + large = R still holds
    "split_moves_one": lambda mp: _wrap(
        mp, "_split_sums", lambda true, *a: [(s - 1, l + 1) for s, l in true(*a)], progressions),
    "split_cut_one_late": lambda mp: _from_source(  # the cut reads the sum of the next d
        mp, progressions, "_split_sums", '"right") - 1]', '"right")]'),
    "tau_sum_plus_one": lambda mp: _wrap(mp, "_tau_sum", lambda true, r, x: true(r, x) + 1, multiplicative),
    # class l is counted as class l + 1 mod k: no k = 1 total moves
    "class_shifted": lambda mp: _wrap(
        mp, "_class_counts", lambda true, r, cs: true(r, [(x, k, (l + 1) % k) for x, k, l in cs]),
        sieve, progressions),
    # the local factor of p = 2 reads p^(r - e) for p^(r - e) - 1
    "main_term_factor_of_2": lambda mp: _from_source(
        mp, multiplicative, "_main_term", "num *= p ** (r - e) - 1", "num *= p ** (r - e) - (p != 2)",
        progressions, harness),
}


def test_faults_are_live(monkeypatch):
    # unchecked, sieve printed 607927 and error R(10^6; 7, 2) = 88661: 997^2 = 2 (mod 7)
    assert r_free_counts([10**6], 2) == [607926] and count_r_free_bruteforce(10**6, 2, 7, 2) == 88660
    assert error_term(10**4, 2, 12, 5).count == count_r_free_bruteforce(10**4, 2, 12, 5)
    assert count_solutions(3, 1, 997).count == 3  # unchecked, residues printed N(997) = 1
    mu = sieve.mobius_sieve(10**4)
    assert all(mu[n] == -value for changes in MOBIUS_FLIPS for n, value in changes.items())
    FAULTS["drop_last_prime_power"](monkeypatch)
    assert sieve._class_counts(2, [(10**6, 1, 0)]) == [607927]
    monkeypatch.undo()
    FAULTS["split_small_plus_one"](monkeypatch)  # unchecked, verify-lemmas printed failures=1
    with pytest.raises(SelfCheckError, match=r"the split of R\(10000; 12, 5\) at z=3"):
        progressions.decompose_many(10**4, 2, [(7, 1, 2.0), (12, 5, 3.0), (12, 5, 9.0)])
    assert error_term(10**4, 2, 12, 4).count == 0  # gcd 4 is not 2-free: no split, the zero convention


def _rows(fault, pattern, *argvs, gap=None):
    marks = [pytest.mark.xfail(raises=AssertionError, reason=gap)] if gap else []  # strict by pyproject.toml
    return [pytest.param(fault, argv, pattern, marks=marks, id=f"{fault}: {argv}") for argv in argvs]


ERROR_1E6 = "error --x 1000000 --r 2 --k 7 --l 3"
LEMMAS_1E6 = "verify-lemmas --x 1e6 --r 2 --trials 100 --seed 3"
BV_1E6 = "bv-sum --A 1 --x 1e6 --timing none --r"
LEMMAS_1E5 = "verify-lemmas --x 1e5 --r 2 --trials 100 --seed 3"
BV_1E5 = "bv-sum --A 1 --x 1e5 --timing none --r"
ERROR_1E5 = "error --x 1e5 --k 12 --r"  # then 2 --l 5, where no p^e of 12 divides l, or 3 --l 4
MU = r"mu \* 1 = epsilon fails at n="
SPLIT = r"the split of R\(10000; {}\) at z={} .* not the count"
SPLIT_1E5 = r"the split of R\(100000; \d+, \d+\) at z=\S+ gives .* not the count"

ROWS = [
    *_rows("drop_last_prime_power", "", "sieve --limit 1e6 --r 2", "sieve --limit 1e6 --r 2 --cache {cache}",
           "error --x 1e6 --r 2 --k 7 --l 2", "error --x 1e6 --r 2 --k 7 --l 2 --format json",
           "error --x 1e6 --r 2 --k 7 --l 2 --z 100"),
    *_rows("drop_last_prime_power", r"r=\d: the flags count", f"{BV_1E5} 2", f"{BV_1E5} 3"),
    *_rows("drop_last_prime_power", SPLIT_1E5, LEMMAS_1E5),
    *_rows("mobius_flips{997: 1}", MU, "bv-sum --r 2 --A 1 --x 1e6", LEMMAS_1E6, "sieve --limit 1e6 --r 2,3"),
    *_rows("mobius_flips{30: 1}", MU, f"{ERROR_1E6} --z 50", ERROR_1E6),
    # both have floor(1e8 / d^2) = 1, so no partition total sees the swap; unchecked,
    # bv-sum printed S = 21296.39963141529 for 21302.102239391214
    *_rows("mobius_flips{9998: -1, 9994: 1}", MU, "bv-sum --r 2 --A 1 --x 1e8"),
    *_rows("split_small_plus_one", SPLIT.format(r"\d+, \d+", r"\d.*"),
           "verify-lemmas --x 1e4 --r 2 --trials 50 --seed 1", "verify-lemmas --x 1e4 --r 3 --trials 50 --seed 1"),
    *_rows("split_small_plus_one", SPLIT.format("12, 5", r"1\.0"),
           "error --x 1e4 --r 2 --k 12 --l 5", "error --x 1e4 --r 2 --k 12 --l 5 --format json"),
    *_rows("split_small_plus_one", SPLIT.format("12, 5", r"30\.0"), "error --x 1e4 --r 2 --k 12 --l 5 --z 30"),
    *_rows("split_small_plus_one", UNCHANGED, "error --x 1e4 --r 2 --k 12 --l 4"),
    *_rows("forced_self_check", "forced for the exit-code contract", "bv-sum --r 2 --A 1 --x 1e4"),
    *_rows("count_classes_off_by_one", f"class counts for k={K_1E4} ", "bv-sum --r 2 --A 0.5 --x 1e4 --timing none"),
    # no ratio rises past s = 1 at r = 3: only the recount of s = 997 sees it
    *_rows("maxima_without_large_prime", r"N\(997\) at r=3: the sieve gives count 1 ", "residues --r 3 --s-max 2000"),
    *_rows("f_value_scaled", "", "f --r 3 --k 12", ERROR_1E6, f"{ERROR_1E6} --z 50", LEMMAS_1E6, f"{BV_1E6} 2",
           gap="item 15"),
    *_rows("tally_one_late", "", f"{BV_1E6} 2", f"{BV_1E6} 3", gap="item 8"),
    *_rows("split_moves_one", UNCHANGED, ERROR_1E6),
    *_rows("split_moves_one", "", f"{ERROR_1E6} --z 50", LEMMAS_1E6, gap="item 16: no check planned"),
    *_rows("split_cut_one_late", "", f"{ERROR_1E6} --z 50", LEMMAS_1E6, gap="item 16: no check planned"),
    *_rows("tau_sum_plus_one", "", "tau-sum --r 3 --x 1e4,1e5", gap="item 10"),
    *_rows("class_shifted", SPLIT_1E5, f"{ERROR_1E5} 2 --l 5", f"{ERROR_1E5} 2 --l 5 --z 50", f"{ERROR_1E5} 3 --l 4",
           LEMMAS_1E5),
    *_rows("class_shifted", UNCHANGED, "sieve --limit 1e5 --r 2", f"{BV_1E5} 2"),  # k = 1 totals only
    *_rows("main_term_factor_of_2", "", LEMMAS_1E5, f"{BV_1E5} 2", f"{BV_1E5} 3", f"{ERROR_1E5} 3 --l 4",
           f"{ERROR_1E5} 3 --l 4 --z 50", gap="item 15"),
    *_rows("main_term_factor_of_2", UNCHANGED, f"{ERROR_1E5} 2 --l 5"),
]


@pytest.mark.parametrize("fault,argv,pattern", ROWS)
def test_fault(fault, argv, pattern, monkeypatch, capsys, tmp_path):
    argv = argv.format(cache=tmp_path / "s.rfsv").split()
    assert main(argv) == 0
    unclocked = functools.partial(re.sub, r"in \d+\.\d+s", "in -s")  # the seconds that sieve prints
    clean = unclocked(capsys.readouterr().out)
    FAULTS[fault](monkeypatch)
    code, captured = main(argv), capsys.readouterr()
    out = unclocked(captured.out)
    if pattern is UNCHANGED:
        assert (code, out) == (0, clean)
        return
    if (code, out) == (0, clean):  # not an AssertionError, so no xfail hides it
        pytest.fail("the fault changes nothing")
    # nothing on stdout, but the header that residues prints before its first batch
    assert (code, out) == (3, "s,a,count,ratio\n" if argv[0] == "residues" else "")
    assert re.match(f"exact-identity self-check failed: {pattern}", captured.err), captured.err


COMMANDS = ("sieve", "error", "error --z", "verify-lemmas", "bv-sum", "residues", "f", "tau-sum")


def fault_table():
    """README's table of ``ROWS``: exit 3, an unchanged stdout (–) or, for a
    gap, a wrong stdout and the item that closes it, per fault and command."""
    cells = {}
    for row in ROWS:
        fault, argv, pattern = row.values
        words = argv.split()
        command = f"{words[0]} --z" if "--z" in words else words[0]
        assert command in COMMANDS, command
        seen = "–" if pattern is UNCHANGED else f"wrong ({row.marks[0].kwargs['reason']})" if row.marks else "exit 3"
        cells.setdefault(fault, {}).setdefault(command, {})[seen] = None
    lines = ["| fault | " + " | ".join(f"`{c}`" for c in COMMANDS) + " |", "| --- " * (len(COMMANDS) + 1) + "|"]
    for fault, seen in cells.items():
        lines.append(f"| `{fault}` | " + " | ".join(", ".join(seen.get(c, ())) for c in COMMANDS) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(fault_table(), end="")
