import itertools
import math
import random
import tracemalloc
import zlib

import numpy as np
import pytest

import rfree.sieve as sieve
from conftest import unpacked
from rfree import (
    ConfigError,
    Factorization,
    ResourceLimitError,
    SieveTable,
    build_sieve,
    count_r_free_bruteforce,
    factor_sieve,
    is_r_free,
    load_cache,
    mu_r_direct,
    r_free_counts,
    save_cache,
    totient_value,
    trial_factorize,
)


def test_squarefree_flags_to_ten():
    table = build_sieve(10, {2})
    assert list(unpacked(table, 2)[1:11]) == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]


def test_limit_one():
    table = build_sieve(1, {2})
    assert table.mu[1] == 1
    assert unpacked(table, 2)[1] == 1
    # np.packbits order: n = 0 in the high bit, then n = 1, then zero pad bits
    assert table.mu_r[2].tolist() == [0b0100_0000]
    assert table.phi[1] == 1
    assert table.spf[1] == 1
    assert table.omega[1] == 0


def test_cubefree_count_to_hundred():
    # independent oracle: inclusion-exclusion over d^3
    table = build_sieve(100, {3})
    expected = sum(_mobius(d) * (100 // d**3) for d in range(1, 5))
    assert expected == 85
    assert int(unpacked(table, 3)[1:].sum()) == 85


@pytest.fixture(scope="module")
def table_windows():
    return build_sieve(3 * sieve._COUNT_WINDOW + 5, {2, 3, 4})


@pytest.mark.parametrize("r", [2, 3, 4])
def test_r_free_counts_match_flags_across_windows(table_windows, r):
    # x at the last n of a window, the first of the next, one past it and
    # inside the fourth window, asked for out of order in one pass
    w = sieve._COUNT_WINDOW
    xs = [3 * w + 5, w - 1, w + 1, w]
    expected = [int(unpacked(table_windows, r)[1 : x + 1].sum()) for x in xs]
    assert r_free_counts(xs, r) == expected


@pytest.mark.parametrize("r", [2, 3, 4])
def test_window_counts_match_mobius_sums(table_windows, r):
    # the counts at the window edges against sum_d mu(d) floor(x / d^r),
    # which reads neither the kernel nor the flags
    w = sieve._COUNT_WINDOW
    xs = [w - 1, w, w + 1, 3 * w + 5]
    expected = [
        sum(_mobius(d) * (x // d**r) for d in range(1, math.isqrt(x) + 1))
        for x in xs
    ]
    assert r_free_counts(xs, r) == expected
    flags = unpacked(table_windows, r)
    assert [int(np.count_nonzero(flags[1 : x + 1])) for x in xs] == expected


def test_short_windows_match_trial_division(monkeypatch):
    # a 64-flag window puts every p^r >= 64 on the fancy-indexed clear and
    # makes both clears run at every window offset up to 2000
    monkeypatch.setattr(sieve, "_COUNT_WINDOW", 64)
    table = build_sieve(2000, {2, 3, 4})
    for r in (2, 3, 4):
        expected = [0] + [int(is_r_free(n, r)) for n in range(1, 2001)]
        assert unpacked(table, r).tolist() == expected
        totals = list(itertools.accumulate(expected))
        assert totals[2000] == count_r_free_bruteforce(2000, r, 1, 0)
        assert r_free_counts(range(2001), r) == totals


@pytest.mark.parametrize("r", [2, 3, 4])
def test_zero_is_not_counted_below_the_first_power(r):
    # below 2^r no p^r clears a flag, so only the n = 0 clear keeps 0 out
    top = 2**r - 1
    assert unpacked(build_sieve(top, {r}), r).tolist() == [0] + [1] * top
    assert r_free_counts([0, top], r) == [0, top]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_r_free_counts_match_bruteforce(r):
    xs = list(range(201))
    assert r_free_counts(xs, r) == [count_r_free_bruteforce(x, r, 1, 0) for x in xs]


def test_r_free_counts_validation():
    assert r_free_counts([], 2) == []
    with pytest.raises(ValueError):
        r_free_counts([10], 1)
    with pytest.raises(ValueError):
        r_free_counts([10, -1], 2)


def test_r_free_counts_refuse_x_past_2_32_at_once(monkeypatch):
    # refused before any window or power is made: 2**40 would take about
    # 10^6 passes of the window
    def no_sieve(*args):
        raise AssertionError("sieved before the range was checked")

    monkeypatch.setattr(sieve, "_r_powers", no_sieve)
    for xs in ([2**32], [10, 2**40]):
        with pytest.raises(ValueError, match="outside"):
            r_free_counts(xs, 2)
    with pytest.raises(ValueError, match="r must"):
        r_free_counts([], 1)


def _mobius(n):
    if n == 1:
        return 1
    sign = 1
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def test_factorization_product_invariant(factors_1e5):
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, factors_1e5.limit)
        fact = trial_factorize(n)
        prod = 1
        for p, e in fact.factors:
            prod *= p**e
        assert prod == n
        primes = [p for p, _ in fact.factors]
        assert primes == sorted(primes)
        assert fact.omega == int(factors_1e5.omega[n])


def test_factorization_rejects_wrong_product():
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))


def test_mu_r_direct_examples():
    assert mu_r_direct(4, 2) == 0
    assert mu_r_direct(8, 3) == 0
    assert mu_r_direct(8, 4) == 1
    assert mu_r_direct(1, 5) == 1


def test_mu_r_direct_validation():
    with pytest.raises(ValueError):
        mu_r_direct(0, 2)
    with pytest.raises(ValueError):
        mu_r_direct(5, 1)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_sieve_matches_direct_sum_sample(table_1e5, r):
    rng = random.Random(r)
    ns = [rng.randint(1, table_1e5.limit) for _ in range(500)]
    ns += [1, 2, 4, 8, 16, 36, 64, 100, 729, 1024, 99991, 100000]
    flags = unpacked(table_1e5, r)
    for n in ns:
        assert int(flags[n]) == mu_r_direct(n, r), (n, r)


def test_mu_zero_iff_not_squarefree(factors_1e5, table_1e5):
    mu = factors_1e5.mu[1:]
    sf = unpacked(table_1e5, 2)[1:]
    assert np.array_equal(mu != 0, sf == 1)


def test_flags_match_factorizations(factors_1e5, table_1e5):
    # an independent construction: the flags come from p^r strides, the
    # exponents from trial division
    top = np.zeros(factors_1e5.limit + 1, dtype=np.int64)
    for n in range(1, factors_1e5.limit + 1):
        top[n] = max((e for _, e in trial_factorize(n).factors), default=0)
    for r in (2, 3, 4):
        assert np.array_equal(unpacked(table_1e5, r)[1:] == 1, top[1:] < r), r


def test_sieve_factors_are_root_prefix(factors_1e5, table_1e5):
    root = math.isqrt(table_1e5.limit) + 1
    assert root == 317
    for name in ("mu", "spf", "omega", "phi"):
        arr = getattr(table_1e5, name)
        assert arr.dtype == getattr(factors_1e5, name).dtype
        assert np.array_equal(arr, getattr(factors_1e5, name)[:root]), name


def test_totient_divisor_sum(factors_1e5):
    # sum of phi over divisors of n equals n
    rng = random.Random(2)
    for n in [1, 2, 12, 360, 99991] + [rng.randint(1, 10**5) for _ in range(50)]:
        fact = trial_factorize(n)
        divs = [1]
        for p, e in fact.factors:
            divs = [d * p**j for d in divs for j in range(e + 1)]
        assert sum(int(factors_1e5.phi[d]) for d in divs) == n


def test_phi_against_formula(factors_1e5):
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, factors_1e5.limit)
        assert int(factors_1e5.phi[n]) == totient_value(n)


def test_mu_prime_values(factors_1e5):
    for p in (2, 3, 5, 7, 11, 99991):
        assert factors_1e5.mu[p] == -1
    assert factors_1e5.mu[1] == 1


def test_spf_values(factors_1e5):
    assert factors_1e5.spf[1] == 1
    assert factors_1e5.spf[2] == 2
    assert factors_1e5.spf[15] == 3
    assert factors_1e5.spf[99991] == 99991  # prime


def test_density_near_zeta_inverse(table_1e5):
    density = int(unpacked(table_1e5, 2)[1:].sum()) / table_1e5.limit
    assert 0.59 < density < 0.62


def test_factor_tables_match_trial_division():
    # whole-range oracle: every n <= 2*10^4 against trial division
    limit = 20_000
    table = factor_sieve(limit)
    for n in range(1, limit + 1):
        fact = trial_factorize(n)
        factors = fact.factors
        squarefree = all(e == 1 for _, e in factors)
        assert table.mu[n] == ((-1) ** len(factors) if squarefree else 0), n
        assert table.spf[n] == (factors[0][0] if factors else 1), n
        assert table.omega[n] == len(factors), n
        assert table.phi[n] == totient_value(n), n
    assert (table.mu[0], table.spf[0], table.omega[0], table.phi[0]) == (0, 0, 0, 0)


def test_build_validation():
    with pytest.raises(ValueError):
        build_sieve(0, {2})
    with pytest.raises(ValueError):
        build_sieve(10, {1})
    with pytest.raises(ValueError):
        factor_sieve(0)


def test_memory_budget_named_in_error():
    # six packed flag arrays of 3e9 bits, 375 MB each: below 2**32 but over
    # the 2 GiB budget, refused before allocating
    with pytest.raises(ResourceLimitError, match="budget"):
        build_sieve(3 * 10**9, range(2, 8))


def test_limit_beyond_32bit_rejected():
    with pytest.raises(ResourceLimitError, match="class_counts"):
        build_sieve(2**32, {2})
    with pytest.raises(ResourceLimitError, match="spf/phi"):
        factor_sieve(2**32)


def test_tables_are_read_only(table_1e5, factors_1e5):
    with pytest.raises(ValueError):
        table_1e5.mu[5] = 0
    with pytest.raises(ValueError):
        table_1e5.mu_r[2][5] = 0
    with pytest.raises(ValueError):
        factors_1e5.phi[5] = 0


def test_is_r_free_trial():
    assert is_r_free(4, 3)
    assert not is_r_free(4, 2)
    assert not is_r_free(8, 3)
    assert is_r_free(1, 2)


def test_trial_factorize_matches_table(factors_1e5):
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, factors_1e5.limit)
        fact = trial_factorize(n)
        assert int(factors_1e5.spf[n]) == (fact.factors[0][0] if n > 1 else 1)
        assert int(factors_1e5.omega[n]) == fact.omega
        assert int(factors_1e5.phi[n]) == totient_value(n)


def test_cache_roundtrip_bit_identical(table_1e4, tmp_path):
    path = tmp_path / "sieve.rfsv"
    save_cache(table_1e4, path)
    loaded = load_cache(path)
    assert loaded.limit == table_1e4.limit
    assert loaded.rs == table_1e4.rs
    assert np.array_equal(loaded.mu, table_1e4.mu)
    assert np.array_equal(loaded.spf, table_1e4.spf)
    assert np.array_equal(loaded.omega, table_1e4.omega)
    assert np.array_equal(loaded.phi, table_1e4.phi)
    for r in table_1e4.rs:
        assert np.array_equal(loaded.mu_r[r], table_1e4.mu_r[r])
    # re-saving the reloaded table reproduces the file byte for byte
    path2 = tmp_path / "sieve2.rfsv"
    save_cache(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.rfsv"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_cache(path)


def test_cache_starts_with_magic(table_1e4, tmp_path):
    path = tmp_path / "sieve.rfsv"
    save_cache(table_1e4, path)
    assert path.read_bytes()[:5] == b"RFSV2"


def _saved_bytes(table, tmp_path) -> bytes:
    path = tmp_path / "good.rfsv"
    save_cache(table, path)
    return path.read_bytes()


def test_cache_refuses_truncated_file(table_1e4, tmp_path):
    path = tmp_path / "short.rfsv"
    path.write_bytes(_saved_bytes(table_1e4, tmp_path)[:-700])
    with pytest.raises(ConfigError, match="bytes"):
        load_cache(path)


def test_cache_refuses_trailing_junk(table_1e4, tmp_path):
    path = tmp_path / "long.rfsv"
    path.write_bytes(_saved_bytes(table_1e4, tmp_path) + b"\x00")
    with pytest.raises(ConfigError, match="bytes"):
        load_cache(path)


def test_cache_refuses_cut_header(table_1e4, tmp_path):
    path = tmp_path / "stub.rfsv"
    path.write_bytes(_saved_bytes(table_1e4, tmp_path)[:10])
    with pytest.raises(ConfigError, match="header"):
        load_cache(path)


def test_cache_save_replaces_atomically(table_1e4, tmp_path, monkeypatch):
    small = build_sieve(100, {2})
    path = tmp_path / "sieve.rfsv"
    save_cache(small, path)
    before = path.read_bytes()

    crc32 = zlib.crc32

    def crash(data, crc=0):
        if memoryview(data).nbytes > 100:  # the header passes, the flags do not
            raise OSError("disk full")
        return crc32(data, crc)

    # a save that dies half-way leaves the old file and no temporary behind
    monkeypatch.setattr(zlib, "crc32", crash)
    with pytest.raises(OSError, match="disk full"):
        save_cache(table_1e4, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.rfsv"]

    save_cache(table_1e4, path)
    assert load_cache(path).limit == table_1e4.limit
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.rfsv"]


def test_table_rejects_short_arrays():
    root = np.ones(4, dtype=np.uint8)  # isqrt(10) + 1
    flags = np.ones(2, dtype=np.uint8)  # 11 bits packed into (10 + 8) // 8 bytes
    with pytest.raises(ValueError, match="does not cover"):
        SieveTable(10, (2,), root, root, root, root, {2: flags[:1]})
    with pytest.raises(ValueError, match="does not cover"):
        SieveTable(10, (2,), root[:3], root, root, root, {2: flags})
    with pytest.raises(ValueError, match="does not cover"):
        SieveTable(10, (2,), flags, root, root, root, {2: flags})
    SieveTable(10, (2,), root, root, root, root, {2: flags})


# offset 21 is the low byte of the first r value: flipping it turns r=2
# into r=3, same size, so only the checksum can catch it
@pytest.mark.parametrize("at", [-700, 21])
def test_cache_refuses_flipped_bit(table_1e4, tmp_path, at):
    raw = bytearray(_saved_bytes(table_1e4, tmp_path))
    raw[at] ^= 0x01
    path = tmp_path / "flipped.rfsv"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="checksum"):
        load_cache(path)


def test_cache_refuses_old_format(tmp_path):
    path = tmp_path / "old.rfsv"
    path.write_bytes(b"RFSV1" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="RFSV1.*delete it and rebuild"):
        load_cache(path)


def test_cache_save_holds_one_packed_array(tmp_path):
    # three r at 2^20 pack to 128 KiB each; the save keeps one alive at a time
    table = build_sieve(2**20, {2, 3, 4})
    tracemalloc.start()
    try:
        save_cache(table, tmp_path / "sieve.rfsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**17 + 2**15
    assert load_cache(tmp_path / "sieve.rfsv").mu_r[3].tolist() == table.mu_r[3].tolist()


def test_build_holds_packed_flags_and_one_window():
    # two packed tables of 2^22 + 1 flags, one 1 MiB scratch window and the
    # 128 KiB it packs to; a uint8 flag per n would be 8 MiB
    tracemalloc.start()
    try:
        table = build_sieve(2**22, {2, 3})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2**19 + 1) + 2**20 + 2**17 + 2**16
    assert [table.mu_r[r].nbytes for r in table.rs] == [2**19 + 1] * 2


def test_cache_refuses_nonzero_pad_bit(table_1e4, tmp_path):
    # 10001 flags fill 1251 bytes with 7 pad bits; set the last one and fix
    # the checksum, so only the pad-bit check can refuse the file
    raw = bytearray(_saved_bytes(table_1e4, tmp_path))
    raw[-1] |= 0x01
    raw[5:9] = zlib.crc32(raw[9:]).to_bytes(4, "little")
    path = tmp_path / "padded.rfsv"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="pad bits"):
        load_cache(path)


def test_cache_load_holds_one_packed_array(tmp_path):
    # the three 128 KiB packed arrays, as read from the file, are the table;
    # the load unpacks nothing
    table = build_sieve(2**20, {2, 3, 4})
    save_cache(table, tmp_path / "sieve.rfsv")
    tracemalloc.start()
    try:
        loaded = load_cache(tmp_path / "sieve.rfsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (2**17 + 1) + 2**15
    for r in table.rs:
        assert np.array_equal(loaded.mu_r[r], table.mu_r[r])
