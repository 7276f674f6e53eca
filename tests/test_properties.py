"""Property tests of the exact identities, on random inputs."""

import functools
import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from rfree import (  # noqa: E402
    class_counts,
    count_r_free_bruteforce,
    count_r_free_in_progression,
    count_solutions_bruteforce,
    counts_vector,
    decompose,
    decompose_many,
    is_r_free,
    tau_partial_sum_check,
    tau_value,
    trial_factorize,
)
import rfree.harness as harness  # noqa: E402
from rfree.sieve import _class_counts, _d_terms, _root_mu  # noqa: E402
from test_harness import reference_count_classes  # noqa: E402
from test_progressions import decompose_by_loop  # noqa: E402

# small moduli, and up to 400 * 2^70 (far past int64) in a form that trial
# division factors at once
_moduli = st.builds(
    lambda m, j: m << j,
    st.integers(min_value=1, max_value=400),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=70)),
)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=100_000),
    r=st.sampled_from([2, 3]),
    k=st.integers(min_value=1, max_value=300),
)
def test_class_counts_match_strided_scan(x, r, k):
    counts = class_counts(x, r, k)
    assert counts.tolist() == _class_counts(r, [(x, k, l) for l in range(k)])


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=100_000),
    r=st.sampled_from([2, 3, 4]),
    # both sides of 46341, the first k whose entries take int64
    k=st.one_of(st.integers(min_value=1, max_value=3000),
                st.integers(min_value=46_300, max_value=46_400)),
    block=st.sampled_from([64, harness._BLOCK]),
)
def test_count_classes_match_reference_and_strided_scan(x, r, k, block):
    # a 64-entry block splits the tally of every modulus with more entries
    terms = _d_terms(_root_mu(x, r), x, r)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_BLOCK", block)
        counts = harness._count_classes(terms, k).tolist()
    assert counts == reference_count_classes(terms, k).tolist()
    assert counts == _class_counts(r, [(x, k, l) for l in range(k)])


@settings(max_examples=100, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=3000),
    r=st.sampled_from([2, 3, 4]),
    k=st.integers(min_value=1, max_value=3100),
    l_seed=st.integers(min_value=0, max_value=2**32),
)
def test_count_matches_bruteforce(x, r, k, l_seed):
    l = l_seed % k
    assert count_r_free_in_progression(x, r, k, l) == count_r_free_bruteforce(x, r, k, l)


@settings(max_examples=80, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=30_000),
    r=st.sampled_from([2, 3, 4]),
    k=_moduli,
    l_seed=st.integers(min_value=0, max_value=2**80),
    z_frac=st.floats(min_value=0.0, max_value=1.2),
)
def test_split_matches_scalar_loop_and_bruteforce(mu_1e5, x, r, k, l_seed, z_frac):
    l = l_seed % k
    g = math.gcd(l, k)
    assume(is_r_free(g, r))
    z = 1.0 + z_frac * (x / g) ** (1 / r)
    rep = decompose(x, r, k, l, z)
    assert (rep.small_sum, rep.large_sum) == decompose_by_loop(mu_1e5, x, r, k, l, z)
    assert rep.small_sum + rep.large_sum == count_r_free_bruteforce(x, r, k, l)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=30_000),
    r=st.sampled_from([2, 3, 4]),
    draws=st.lists(
        st.tuples(
            _moduli,
            st.integers(min_value=0, max_value=2**80),
            # scale l by a few small factors so that one batch mixes g
            st.sampled_from([1, 2, 3, 4, 6, 12]),
            st.floats(min_value=0.0, max_value=1.2),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_split_batch_matches_scalar_loop_and_bruteforce(mu_1e5, x, r, draws):
    trials = []
    for k, l_seed, factor, z_frac in draws:
        l = l_seed * factor % k
        g = math.gcd(l, k)
        if is_r_free(g, r):
            trials.append((k, l, 1.0 + z_frac * (x / g) ** (1 / r)))
    assume(trials)
    k, l, _ = trials[0]
    trials.append((k, l, 1.0))  # a repeated (k, l), cut at z = 1
    reports = decompose_many(x, r, trials)
    assert len(reports) == len(trials)
    for (k, l, z), rep in zip(trials, reports):
        assert (rep.k, rep.l, rep.z) == (k, l, z)
        assert (rep.small_sum, rep.large_sum) == decompose_by_loop(mu_1e5, x, r, k, l, z)
        assert rep.small_sum + rep.large_sum == rep.count == count_r_free_bruteforce(x, r, k, l)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(min_value=2, max_value=6), s=st.integers(min_value=1, max_value=400))
def test_counts_vector_matches_enumeration(r, s):
    expected = [count_solutions_bruteforce(r, a, s) for a in range(s)]
    assert counts_vector(r, s).tolist() == expected


@functools.lru_cache(maxsize=None)
def _tau_prefix_sums(r):
    """The sums of tau_value(r, n) over n <= x, for every x <= 3000."""
    return list(itertools.accumulate((tau_value(r, n) for n in range(1, 3001)), initial=0))


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=3, max_value=3000), min_size=1, max_size=4),
    r=st.integers(min_value=1, max_value=5),
)
def test_tau_partial_sums_match_tau_value(xs, r):
    rows = tau_partial_sum_check(r, xs)
    assert [row.x for row in rows] == xs
    assert [row.total for row in rows] == [_tau_prefix_sums(r)[x] for x in xs]


def _plain_factorize(n):
    """Trial division by every d up to the square root of the cofactor."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out + [(n, 1)] * (n > 1))


def _next_prime(n):
    while _plain_factorize(n) != ((n, 1),):
        n += 1
    return n


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(
    st.integers(min_value=1, max_value=2**40 - 1),
    st.integers(min_value=2**32, max_value=2**40 - 1),  # past the trial division
))
def test_trial_factorize_matches_plain_division_below_2_40(n):
    assert trial_factorize(n).factors == _plain_factorize(n)


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(min_value=2**31 - 2**20, max_value=2**31 + 2**20),
    b=st.integers(min_value=2**31 - 2**20, max_value=2**31 + 2**20),
)
def test_trial_factorize_splits_two_primes_near_2_31(a, b):
    p, q = sorted((_next_prime(a), _next_prime(b)))
    expected = ((p, 2),) if p == q else ((p, 1), (q, 1))
    assert trial_factorize(p * q).factors == expected
