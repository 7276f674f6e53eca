import math
import random
import tracemalloc

import pytest

import rfree.progressions as progressions
from conftest import r_free_flags
from rfree import (
    SelfCheckError,
    count_r_free_bruteforce,
    count_r_free_in_progression,
    decompose,
    decompose_many,
    error_term,
    f_value,
    is_r_free,
    lemma_bound_probe,
    main_term,
    trial_factorize,
)
from rfree.arith import _int_rth_root
from rfree.harness import class_counts
from rfree.progressions import _split_sums
from rfree.sieve import _COUNT_WINDOW, _class_counts, _d_terms, _root_mu


def test_count_examples():
    assert count_r_free_in_progression(100, 2, 4, 2) == 20
    assert count_r_free_in_progression(10, 2, 1, 0) == 7
    assert count_r_free_in_progression(100, 2, 4, 0) == 0


def test_count_validation():
    for x in (2**32, -1):
        with pytest.raises(ValueError, match="outside"):
            count_r_free_in_progression(x, 2, 3, 1)
    with pytest.raises(ValueError, match="r must"):
        count_r_free_in_progression(100, 1, 3, 1)
    with pytest.raises(ValueError):
        count_r_free_in_progression(100, 2, 0, 0)
    with pytest.raises(ValueError):
        count_r_free_in_progression(100, 2, 3, 3)


@pytest.mark.parametrize("r", [2, 3])
def test_count_against_bruteforce(r):
    rng = random.Random(10 + r)
    for _ in range(150):
        x = rng.randint(1, 2000)
        k = rng.randint(1, 30)
        l = rng.randrange(k)
        assert count_r_free_in_progression(x, r, k, l) == \
            count_r_free_bruteforce(x, r, k, l)


# two whole windows and a third of 9 flags
_EDGES_LIMIT = 2 * _COUNT_WINDOW + 8


def _every_class(k_max, x):
    """Every (k, l) with k <= k_max, and five classes of a modulus above x."""
    classes = [(k, l) for k in range(1, k_max + 1) for l in range(k)]
    return classes + [(x + 5, l) for l in range(5)]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_class_counts_at_window_edges(r):
    # every class of every k <= 12 and some of a k > x, at the last flag of a
    # window, the first of the next, one past it, inside the third window
    # and at the last flag; against the strided scan of the kernel's flags
    # and, for k <= 12, the Mobius sums of class_counts
    flags = r_free_flags(_EDGES_LIMIT, r)
    w = _COUNT_WINDOW
    for x in (w - 1, w, w + 1, 2 * w + 7, _EDGES_LIMIT):
        classes = _every_class(12, x)
        expected = [int(flags[l or k : x + 1 : k].sum()) for k, l in classes]
        assert _class_counts(r, [(x, k, l) for k, l in classes]) == expected, x
        assert [
            count_r_free_in_progression(x, r, k, l) for k, l in classes[:3] + classes[-3:]
        ] == expected[:3] + expected[-3:], x
        mobius = [c for k in range(1, 13) for c in class_counts(x, r, k).tolist()]
        assert mobius == expected[: len(mobius)], x


@pytest.mark.parametrize("r", [2, 3, 4])
def test_class_counts_match_bruteforce_to_200(r):
    for x in range(201):
        classes = _every_class(7, x)
        expected = [count_r_free_bruteforce(x, r, k, l) for k, l in classes]
        assert _class_counts(r, [(x, k, l) for k, l in classes]) == expected, x
        assert [
            count_r_free_in_progression(x, r, k, l) for k, l in classes
        ] == expected, x


@pytest.mark.parametrize("r", [2, 3])
def test_partition_over_residues(r):
    # classes of any modulus partition [1, x]
    flags = r_free_flags(100_000, r)
    for x in (37, 1000, 100_000):
        total = int(flags[1 : x + 1].sum())
        for k in range(1, 101):
            assert int(class_counts(x, r, k).sum()) == total


def test_zero_progression_when_gcd_not_r_free():
    # every member of the class is divisible by an r-th power
    for x in (10, 500, 9999):
        assert count_r_free_in_progression(x, 2, 4, 0) == 0
        assert count_r_free_in_progression(x, 3, 16, 8) == 0


def test_main_term_modulus_one():
    assert abs(main_term(10**6, 2, 1, 0) - 607927.1018540267) < 0.01
    assert main_term(0, 2, 1, 0) == 0.0


def test_main_term_example():
    assert abs(main_term(100, 2, 4, 2) - 20.264236728467555) < 1e-9


def test_main_term_domain_error():
    with pytest.raises(ValueError, match="free"):
        main_term(100, 2, 4, 0)
    for r in (64, 10**11):  # refused before any p**r is formed
        with pytest.raises(ValueError, match="r must be below 64"):
            main_term(100, r, 2**40, 2**39)


@pytest.mark.parametrize("r", [3, 4])
def test_main_term_tracks_count_for_higher_r(r):
    # the local factor at p^e || k with p^e | l is 1 - p^(e - r); the r = 2
    # form phi(k) / (g phi(s)) is off by up to a factor 2 here
    x = 100_000
    for k in range(1, 31):
        for l in range(k):
            if not is_r_free(math.gcd(l, k), r):
                continue
            main = main_term(x, r, k, l)
            count = count_r_free_in_progression(x, r, k, l)
            assert abs(count - main) <= 1e-2 * main, (k, l, count, main)


@pytest.mark.parametrize(
    "k, l, ratio, count, main",
    [
        (6, 2, (3, 4), 123413, 123414.82999823168),  # 1 - 2^(1-3)
        (10, 5, (24, 25), 92012, 92008.18867251682),  # 1 - 5^(1-3)
    ],
    ids=["6-2", "10-5"],
)
def test_main_term_r3_pinned(k, l, ratio, count, main):
    x, r = 10**6, 3
    value = main_term(x, r, k, l)
    assert value == (x / k) * (ratio[0] / ratio[1]) * f_value(r, k).value
    assert abs(value - main) < 1e-6
    rep = error_term(x, r, k, l)
    assert rep.count == count and rep.main_term == value


def test_error_term_example():
    rep = error_term(100, 2, 4, 2)
    assert rep.count == 20
    assert abs(rep.error_term - (20 - 20.264236728467555)) < 1e-9
    assert rep.g == 2 and rep.s == 2 and rep.t == 1
    assert rep.g_is_r_free
    assert math.gcd(rep.t, rep.s) == 1


def test_error_term_zero_convention():
    rep = error_term(100, 2, 4, 0)
    assert not rep.g_is_r_free
    assert rep.count == 0 and rep.main_term == 0.0 and rep.error_term == 0.0


def test_error_term_reports_error_budget():
    rep = error_term(100, 2, 4, 2)
    assert 0 < rep.main_rel_error < 1e-10


def test_error_term_validates_range_even_for_zero_convention():
    for x in (2**32, -1):
        with pytest.raises(ValueError, match="outside"):
            error_term(x, 2, 4, 0)
    with pytest.raises(ValueError, match="r must"):
        error_term(100, 1, 4, 0)


def test_decompose_z_validation():
    with pytest.raises(ValueError):
        decompose(100, 2, 4, 2, 0.5)
    for z in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="z must be a finite number >= 1"):
            decompose(100, 2, 4, 2, z=z)
    with pytest.raises(ValueError):
        decompose(100, 2, 4, 0, 2.0)  # gcd 4 not squarefree


def test_decompose_large_range_empty():
    # z at or past (x/g)^(1/r) puts everything in the small part
    rep = decompose(100, 2, 4, 2, 8.0)
    assert rep.large_sum == 0
    assert rep.small_sum == rep.count == 20


def test_decompose_split_example():
    rep = decompose(100, 2, 4, 2, 3.0)
    assert rep.small_sum + rep.large_sum == 20


def test_decompose_r3_example():
    rep = decompose(1000, 3, 7, 3, 1000**0.25)
    assert rep.small_sum + rep.large_sum == rep.count
    assert rep.count == count_r_free_in_progression(1000, 3, 7, 3)


@pytest.mark.parametrize("r", [2, 3])
def test_decompose_identity_randomized(r):
    rng = random.Random(20 + r)
    done = 0
    while done < 120:
        x = rng.randint(10, 100_000)
        k = rng.randint(1, 60)
        l = rng.randrange(k)
        g = math.gcd(l, k) if l else k
        try:
            z = rng.uniform(1.0, max(1.0, (x / g) ** (1 / r)))
            rep = decompose(x, r, k, l, z)
        except ValueError:
            continue  # g not r-free
        done += 1
        assert rep.small_sum + rep.large_sum == rep.count, (x, r, k, l, z)


def test_decompose_counts_classes_sharing_primes_with_gcd():
    # cofactors may share primes with the gcd as long as the combined
    # exponent stays below r; the split must still recombine exactly
    for x, r, k, l in [(50, 3, 6, 2), (5000, 3, 6, 2), (9999, 4, 12, 4), (7000, 3, 10, 5)]:
        rep = decompose(x, r, k, l, 2.0)
        brute = count_r_free_bruteforce(x, r, k, l)
        assert rep.count == brute
        assert rep.small_sum + rep.large_sum == brute


def _ap_count(limit, a, m):
    """#{ u : 1 <= u <= limit, u = a (mod m) } with 0 <= a < m."""
    if limit < 1:
        return 0
    if a == 0:
        return limit // m
    return (limit - a) // m + 1 if a <= limit else 0


def _inner_count(limit, a, s, caps, crossover):
    """Count u <= limit with u = a (mod s) and q not dividing u for each
    prime power q in caps, by a scan of the candidates when there are at
    most crossover of them, else by inclusion-exclusion over the caps."""
    if limit < 1:
        return 0
    if not caps:
        return _ap_count(limit, a, s)
    if limit // s + 1 <= crossover:
        start = a if a >= 1 else s
        return sum(1 for u in range(start, limit + 1, s) if all(u % q for q in caps))
    total = 0
    for mask in range(1 << len(caps)):
        v = 1
        sign = 1
        for i, q in enumerate(caps):
            if mask >> i & 1:
                v *= q
                sign = -sign
        total += sign * _ap_count(limit // v, a * pow(v, -1, s) % s, s)
    return total


def decompose_by_loop(mu, x, r, k, l, z, *, scan_crossover=2048):
    """(small_sum, large_sum) of the split at z, one d at a time: the
    reference for ``decompose``.  ``mu`` is the Mobius function indexed by
    n, up to at least (x / g)^(1/r)."""
    g = math.gcd(l, k)
    s, t = k // g, l // g
    caps = tuple(p ** (r - e) for p, e in trial_factorize(g).factors if s % p)
    d_max = _int_rth_root(x // g, r)
    z_cut = min(math.floor(z), d_max)
    sums = [0, 0]
    for d in range(1, d_max + 1):
        m = int(mu[d])
        if m == 0 or math.gcd(d, k) != 1:
            continue
        dr = d**r
        a = t * pow(dr, -1, s) % s
        sums[d > z_cut] += m * _inner_count(x // (g * dr), a, s, caps, scan_crossover)
    return tuple(sums)


def test_decompose_scan_and_inclusion_exclusion_agree(mu_1e5):
    rng = random.Random(23)
    for _ in range(40):
        x = rng.randint(100, 100_000)
        k = rng.randint(1, 40)
        l = rng.randrange(k)
        g = math.gcd(l, k) if l else k
        try:
            z = rng.uniform(1.0, max(1.0, (x / g) ** 0.5))
            rep = decompose(x, 2, k, l, z)
        except ValueError:
            continue
        via_scan = decompose_by_loop(mu_1e5, x, 2, k, l, z, scan_crossover=10**9)
        via_ie = decompose_by_loop(mu_1e5, x, 2, k, l, z, scan_crossover=0)
        assert via_scan == via_ie == (rep.small_sum, rep.large_sum)


@pytest.mark.parametrize(
    "r, k, l, z, expected",
    [
        (2, 2**64, 1, 3.0, (1, 1, 0)),
        (2, 3 * 2**70, 5, 2.0, (1, 1, 0)),
        (2, 2**64, 63, 1.0, (0, 1, -1)),
        (3, 2**64 + 2, 2, 1.0, (1, 1, 0)),
        (2, 20_000, 7, 1.5, (1, 1, 0)),
        (2, 20_000, 63, 1.0, (0, 1, -1)),
        (2, 120_066, 30, 1.0, (1, 1, 0)),
        (3, 80_044, 28, 1.0, (1, 1, 0)),
        (2, 10_007, 0, 1.0, (0, 0, 0)),
    ],
)
def test_decompose_huge_moduli(mu_1e5, r, k, l, z, expected):
    # k > x, up to k beyond int64: at most n = l lies in the progression
    x = 10_000
    rep = decompose(x, r, k, l, z)
    assert (rep.count, rep.small_sum, rep.large_sum) == expected
    assert rep.count == count_r_free_bruteforce(x, r, k, l)
    assert (rep.small_sum, rep.large_sum) == decompose_by_loop(mu_1e5, x, r, k, l, z)
    assert rep.small_main == main_term(x, r, k, l)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_decompose_many_mixed_batch(mu_1e5, r):
    x = 10_000
    trials = [
        (12, 6, 1.0), (18, 6, 3.5), (7, 3, 2.0), (30, 0, 2.0), (1, 0, 4.0),  # g = 6, 6, 1, 30, 1
        (12, 6, 1e9),  # the same (k, l) again, cut past (x/g)^(1/r)
        (12, 4, 2.0), (8, 4, 3.0),  # g = 4, r-free for r >= 3
        (20_000, 7, 1.5), (120_066, 30, 1.0),  # k > x
        (3 * 2**70, 3 * 5, 2.0), (400 * 2**70, 25, 1.0),  # past int64; 3 and 5 capped
        # g with four or five primes, most or all of them capped, beside the
        # narrower rows above
        (210, 0, 2.0), (2310, 210, 3.0), (420, 210, 2.0), (2310, 0, 1.5),
        (210 * 97, 210 * 5, 1.0), (2310 * 13 * 17, 4620, 1.0),  # k > x
    ]
    trials = [(k, l, z) for k, l, z in trials if is_r_free(math.gcd(l, k), r)]
    reports = decompose_many(x, r, trials)
    for (k, l, z), rep in zip(trials, reports, strict=True):
        assert (rep.k, rep.l, rep.z) == (k, l, z)
        assert (rep.small_sum, rep.large_sum) == decompose_by_loop(mu_1e5, x, r, k, l, z)
        assert rep.small_sum + rep.large_sum == rep.count == count_r_free_bruteforce(x, r, k, l)
        assert rep == decompose(x, r, k, l, z)


def test_decompose_many_every_class_to_60(mu_1e5):
    # every admissible class of every k <= 60 in one call: many rows per g
    # and per k share the d-terms, the weights and the inverses of the split
    x, r = 99_991, 2
    trials = [
        (k, l, 1.0 + (7 * k + l) % 320)
        for k in range(1, 61)
        for l in range(k)
        if is_r_free(math.gcd(l, k), r)
    ]
    reports = decompose_many(x, r, trials)
    for (k, l, z), rep in zip(trials, reports, strict=True):
        assert (rep.small_sum, rep.large_sum) == decompose_by_loop(mu_1e5, x, r, k, l, z)
        assert rep.small_sum + rep.large_sum == rep.count


def test_split_sums_peak_memory_is_a_few_arrays_over_d():
    # the 198 rows of k = 199 with g = 1 at x = 1e8 share one group's d-terms
    # and one k's weights, and each holds a few arrays over d at a time; the
    # rows l = 1 of k = 2 ... 200 each drop their (d^r)^(-1) mod s once done,
    # so 199 distinct s do not hold 199 arrays over d
    x, r = 10**8, 2
    mu = _root_mu(x, r)
    n_d = _d_terms(mu, x, r)[0].size
    assert n_d == 6083
    for trials, bound in (([(199, l, 1.0 + l) for l in range(199)], 16),
                          ([(k, 1, 1.0 + k) for k in range(2, 201)], 24)):
        factored = {k: (trial_factorize(k), f_value(r, k)) for k, _, _ in trials}
        tracemalloc.start()
        try:
            _split_sums(mu, x, r, trials, factored)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n_d, (len(trials), peak / (8 * n_d))


def test_decompose_many_golden_r3():
    # r = 3, with a capped prime (k = 12, l = 6: 3 divides g but not s), the
    # zero class and cuts on both sides of (x/g)^(1/r); 17.78... is x^(1/4)
    x = 99_991
    zs = (1.0, 7.0, x ** (1 / 4), 1000.0)
    pairs = ((6, 1), (12, 6), (178, 89), (30, 0))
    reports = decompose_many(x, 3, [(k, l, z) for k, l in pairs for z in zs])
    got = [
        (rep.k, rep.l, rep.z, rep.small_sum, rep.large_sum, abs(rep.small_err))
        for rep in reports
    ]
    assert got == [
        (6, 1, 1.0, 16666, -212, 212.17031152908748),
        (6, 1, 7.0, 16484, -30, 30.170311529087485),
        (6, 1, 17.782393974017452, 16461, -7, 7.170311529087485),
        (6, 1, 1000.0, 16454, 0, 0.17031152908748481),
        (12, 6, 1.0, 7407, -94, 94.18680512403898),
        (12, 6, 7.0, 7326, -13, 13.186805124038983),
        (12, 6, 17.782393974017452, 7315, -2, 2.186805124038983),
        (12, 6, 1000.0, 7313, 0, 0.1868051240389832),
        (178, 89, 1.0, 562, -27, 27.984806016422795),
        (178, 89, 7.0, 535, 0, 0.9848060164227945),
        (178, 89, 17.782393974017452, 535, 0, 0.9848060164227945),
        (178, 89, 1000.0, 535, 0, 0.9848060164227945),
        (30, 0, 1.0, 2133, -9, 9.92520148762378),
        (30, 0, 7.0, 2127, -3, 3.925201487623781),
        (30, 0, 17.782393974017452, 2124, 0, 0.9252014876237808),
        (30, 0, 1000.0, 2124, 0, 0.9252014876237808),
    ]
    for rep in reports:
        assert rep.small_sum + rep.large_sum == rep.count


def test_decompose_many_checks_every_trial_first():
    good = (7, 3, 2.0)
    for bad, message in [
        ((7, 3, math.nan), "z must be a finite number >= 1"),
        ((7, 7, 2.0), "bad progression"),
        ((8, 4, 2.0), "is not 2-free"),
    ]:
        with pytest.raises(ValueError, match=message):
            decompose_many(1000, 2, [good, bad])
    assert decompose_many(1000, 2, []) == []


def test_error_term_checks_its_split(monkeypatch):
    # the count error_term reports must be the sum of the split at z = 1
    true = progressions._split_sums
    assert error_term(10**4, 2, 12, 5).count == count_r_free_bruteforce(10**4, 2, 12, 5)
    monkeypatch.setattr(
        progressions, "_split_sums", lambda *args: [(s + 1, l) for s, l in true(*args)]
    )
    with pytest.raises(SelfCheckError, match=r"R\(10000; 12, 5\) at z=1.0 .* not the count"):
        error_term(10**4, 2, 12, 5)
    # a class whose gcd is not r-free has no split and keeps the zero convention
    assert error_term(10**4, 2, 12, 4).count == 0


def test_class_rule_is_one_message():
    # every entry point refuses a bad (k, l) with the one rule of _check_class;
    # unchecked, the oracle gave 22 for (3, 5), a class it does not name, and
    # for (3, -1) the count 15 of the zero class
    for call in (
        lambda: count_r_free_in_progression(100, 2, 7, 7),
        lambda: count_r_free_bruteforce(100, 2, 3, 5),
        lambda: count_r_free_bruteforce(100, 2, 3, -1),
        lambda: main_term(100, 2, 0, 0),
        lambda: error_term(100, 2, 7, -1),
        lambda: decompose_many(100, 2, [(7, 7, 2.0)]),
    ):
        with pytest.raises(ValueError, match=r"bad progression .*: need k >= 1 and 0 <= l < k"):
            call()


def test_lemma_probe_zero_large_part():
    probe = lemma_bound_probe(decompose(100, 2, 4, 2, 8.0))
    assert probe.large_ratio == 0.0
    assert probe.small_residual >= 0.0


def test_lemma_probe_finite_positive():
    probe = lemma_bound_probe(decompose(100, 2, 4, 2, 3.0))
    assert math.isfinite(probe.small_residual) and probe.small_residual >= 0
    assert math.isfinite(probe.large_ratio) and probe.large_ratio >= 0


def test_lemma_probe_sweep_bounded():
    # squarefree case, cut at x^(1/3): the ratios stay below a small
    # constant across three decades of x and random progressions
    rng = random.Random(31)
    for x in (10_000, 100_000, 1_000_000):
        worst_small = worst_large = 0.0
        done = 0
        while done < 20:
            k = rng.randint(1, 50)
            l = rng.randrange(k)
            try:
                probe = lemma_bound_probe(decompose(x, 2, k, l, x ** (1 / 3)))
            except ValueError:
                continue
            done += 1
            worst_small = max(worst_small, probe.small_residual)
            worst_large = max(worst_large, probe.large_ratio)
        assert worst_small < 5.0, (x, worst_small)
        assert worst_large < 5.0, (x, worst_large)


def test_decompose_empty_range():
    rep = decompose(0, 2, 4, 2, 1.0)
    assert rep.small_sum == rep.large_sum == rep.count == 0


def test_int_rth_root_fuzz():
    rng = random.Random(55)
    for _ in range(500):
        r = rng.choice([2, 3, 4, 5])
        n = rng.randint(0, 10**12)
        root = _int_rth_root(n, r)
        assert root**r <= n < (root + 1) ** r, (n, r)
    # exact power boundaries, up to the largest base with base^r < 2**64
    for r in (2, 3, 4, 5, 31, 63):
        top = 2 ** -(-64 // r)
        for base in {1, 2, 3, 7, 100, top // 3, top - 1}:
            if base**r < 2**64:
                assert _int_rth_root(base**r, r) == base
                assert _int_rth_root(base**r - 1, r) == base - 1 or base == 1


def test_error_term_full_range_at_one_million():
    # the k = 1 remainder is of square-root order, far below 1000
    rep = error_term(10**6, 2, 1, 0)
    assert rep.count == 607926
    assert abs(rep.error_term) < 1000
    assert abs(rep.error_term - (607926 - 607927.1018540267)) < 1e-6
