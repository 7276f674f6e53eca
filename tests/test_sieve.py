import hashlib
import itertools
import math
import random
import tracemalloc
import zlib

import numpy as np
import pytest

import rfree.sieve as sieve
from conftest import r_free_flags
from test_faults import wrong_mobius
from rfree import (
    ConfigError,
    Factorization,
    SelfCheckError,
    count_r_free_bruteforce,
    is_r_free,
    mobius_sieve,
    mu_r_direct,
    r_free_counts,
    save_cache,
    trial_factorize,
)
from rfree.arith import _mobius_trial
from rfree.cli import main
from rfree.sieve import _r_powers, _root_mu


def test_squarefree_flags_to_ten():
    assert list(r_free_flags(10, 2)[1:11]) == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]


def test_limit_one(tmp_path):
    assert r_free_flags(1, 2).tolist() == [0, 1]
    path = tmp_path / "one.rfsv"
    assert save_cache(path, 1, {2}) == [1]
    # np.packbits order: n = 0 in the high bit, then n = 1, then zero pad bits
    assert path.read_bytes()[-1:] == bytes([0b0100_0000])
    assert mobius_sieve(1).tolist() == [0, 1]


def test_cubefree_count_to_hundred():
    # independent oracle: inclusion-exclusion over d^3
    expected = sum(_mobius(d) * (100 // d**3) for d in range(1, 5))
    assert expected == 85
    assert int(r_free_flags(100, 3)[1:].sum()) == 85


@pytest.fixture(scope="module")
def table_windows():
    return {r: r_free_flags(3 * sieve._COUNT_WINDOW + 5, r) for r in (2, 3, 4)}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_r_free_counts_match_flags_across_windows(table_windows, r):
    # x at the last n of a window, the first of the next, one past it and
    # inside the fourth window, asked for out of order in one pass
    w = sieve._COUNT_WINDOW
    xs = [3 * w + 5, w - 1, w + 1, w]
    expected = [int(table_windows[r][1 : x + 1].sum()) for x in xs]
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
    flags = table_windows[r]
    assert [int(np.count_nonzero(flags[1 : x + 1])) for x in xs] == expected


def test_short_windows_match_trial_division(monkeypatch, tmp_path):
    # a 64-flag window puts every p^r >= 64 on the fancy-indexed clear and
    # makes both clears run at every window offset up to 2000; the cache
    # packs the 32 windows of each r into the bytes of the whole
    monkeypatch.setattr(sieve, "_COUNT_WINDOW", 64)
    path = tmp_path / "short.rfsv"
    saved = save_cache(path, 2000, {2, 3, 4})
    raw = path.read_bytes()
    for i, r in enumerate((2, 3, 4)):
        expected = [0] + [int(is_r_free(n, r)) for n in range(1, 2001)]
        assert r_free_flags(2000, r).tolist() == expected
        at = sieve._cache_size(2000, 3) - (3 - i) * 251
        assert raw[at : at + 251] == np.packbits(expected).tobytes()
        totals = list(itertools.accumulate(expected))
        assert totals[2000] == count_r_free_bruteforce(2000, r, 1, 0) == saved[i]
        assert r_free_counts(range(2001), r) == totals


@pytest.mark.parametrize("r", [2, 3, 4])
def test_zero_is_not_counted_below_the_first_power(r):
    # below 2^r no p^r clears a flag, so only the n = 0 clear keeps 0 out
    top = 2**r - 1
    assert r_free_flags(top, r).tolist() == [0] + [1] * top
    assert r_free_counts([0, top], r) == [0, top]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_r_free_counts_match_bruteforce(r):
    xs = list(range(201))
    assert r_free_counts(xs, r) == [count_r_free_bruteforce(x, r, 1, 0) for x in xs]


@pytest.mark.parametrize("r", [2, 3])
def test_class_counts_mixed_x_across_window_edges(monkeypatch, r):
    # classes of different x in one pass of 64-flag windows: an x at a
    # window's last flag, its first, and two below a window's start, where
    # an unguarded stop of -1 would count that window all but its last flag
    monkeypatch.setattr(sieve, "_COUNT_WINDOW", 64)
    xs = [0, 1, 62, 63, 64, 65, 126, 127, 128, 190, 500, 1000]
    classes = [
        (x, k, l) for x in xs for k in (1, 2, 7, 63, 64, 65, 130, 1001)
        for l in sorted({0, 1 % k, k // 2, k - 1})
    ]
    random.Random(r).shuffle(classes)
    windows = []
    true = sieve._sieve_window
    monkeypatch.setattr(sieve, "_sieve_window", lambda w, lo, *p: (windows.append(lo), true(w, lo, *p)))
    expected = [count_r_free_bruteforce(x, r, k, l) for x, k, l in classes]
    assert sieve._class_counts(r, classes) == expected
    assert windows == list(range(0, 1001, 64))  # one pass over [0, max x]
    assert sieve._class_counts(r, []) == []


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


def test_factorization_product_invariant():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 100_000)
        fact = trial_factorize(n)
        prod = 1
        for p, e in fact.factors:
            prod *= p**e
        assert prod == n
        primes = [p for p, _ in fact.factors]
        assert primes == sorted(primes)


def test_factorization_rejects_wrong_product():
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))


def test_mu_r_direct_examples():
    assert mu_r_direct(4, 2) == 0
    assert mu_r_direct(8, 3) == 0
    assert mu_r_direct(8, 4) == 1
    assert mu_r_direct(1, 5) == 1


@pytest.mark.parametrize("r", [2, 3, 4])
def test_sieve_matches_direct_sum_sample(r):
    rng = random.Random(r)
    ns = [rng.randint(1, 100_000) for _ in range(500)]
    ns += [1, 2, 4, 8, 16, 36, 64, 100, 729, 1024, 99991, 100000]
    flags = r_free_flags(100_000, r)
    for n in ns:
        assert int(flags[n]) == mu_r_direct(n, r), (n, r)


def test_mu_zero_iff_not_squarefree(mu_1e5):
    mu = mu_1e5[1:]
    sf = r_free_flags(100_000, 2)[1:]
    assert np.array_equal(mu != 0, sf == 1)


def test_flags_match_factorizations():
    # an independent construction: the flags come from p^r strides, the
    # exponents from trial division
    top = np.zeros(100_001, dtype=np.int64)
    for n in range(1, 100_001):
        top[n] = max((e for _, e in trial_factorize(n).factors), default=0)
    for r in (2, 3, 4):
        assert np.array_equal(r_free_flags(100_000, r)[1:] == 1, top[1:] < r), r


def test_sieve_factors_are_root_prefix(mu_1e5):
    # the Mobius sums read mu over [0, x^(1/r)], sieved on its own
    for r, root in ((2, 317), (3, 47)):
        mu = _root_mu(100_000, r)
        assert mu.dtype == mu_1e5.dtype == np.int8
        assert np.array_equal(mu, mu_1e5[:root]), r


def test_mobius_sieve_bytes_pinned():
    # the largest table any command sieves: x < 2**32 and r >= 2
    digest = hashlib.sha256(mobius_sieve(65535).tobytes()).hexdigest()
    assert digest == "b8972994567e5e08762e908500b774b75a84a4b92bfb6caac3a73601e6eb89a7"


def test_mobius_sieve_matches_trial_across_windows(monkeypatch):
    # 64-n windows: limits at, just past and inside window edges, where the
    # p and p^2 strides start at every offset and most p^2 skip a window,
    # and the cofactor rule meets primes above sqrt(limit) in every window
    monkeypatch.setattr(sieve, "_COUNT_WINDOW", 64)
    for limit in (63, 64, 65, 127, 128, 129, 1000, 4099):
        expected = [0] + [_mobius_trial(n) for n in range(1, limit + 1)]
        assert mobius_sieve(limit).tolist() == expected, limit


def test_mobius_sieve_holds_its_table_and_one_window():
    # three full windows and 8 n: the table plus one window's uint32
    # cofactors and the mask of its last flip, 5 bytes per n; no list of
    # the primes up to the limit
    limit = 3 * sieve._COUNT_WINDOW + 7
    tracemalloc.start()
    try:
        mobius_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit + 1 + 5 * sieve._COUNT_WINDOW + 2**16


def test_root_mu_refuses_every_single_wrong_value(monkeypatch):
    # mu * 1 = epsilon fixes mu on [1, Y]: each wrong value of n <= Y = 300
    # fails first at n itself, since no m < n has n | m
    true = mobius_sieve(300)
    for n in range(1, 301):
        for value in {-1, 0, 1} - {int(true[n])}:
            with monkeypatch.context() as patch:
                wrong_mobius(patch, {n: value})
                with pytest.raises(SelfCheckError, match=f"n={n}$"):
                    _root_mu(300**2, 2)
    assert np.array_equal(_root_mu(300**2, 2), true)


def test_save_cache_refuses_a_foreign_file(tmp_path, monkeypatch):
    # only a file that begins with RFSV, the magic of every cache version,
    # is replaced; any other is refused before a window is sieved or a
    # byte written, and left as it was
    def no_sieve(*args):
        raise AssertionError("sieved before the file was checked")

    path = tmp_path / "notes.txt"
    with monkeypatch.context() as patch:
        patch.setattr(sieve, "_r_free_windows", no_sieve)
        for content in (b"NOPE!" + bytes(64), b"RFS", b""):
            path.write_bytes(content)
            with pytest.raises(ConfigError, match="not a sieve cache"):
                save_cache(path, 100, {2})
            assert path.read_bytes() == content
            assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    path.write_bytes(b"RFSV1 an older cache")
    assert save_cache(path, 100, {2}) == [61]
    assert path.read_bytes()[:5] == b"RFSV2"


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (101, 2), (2, 3), (1021, 3),
                                 (251, 4), (2, 20), (3, 20), (2, 31)])
def test_r_powers_match_bruteforce(p, r):
    for top in (p**r - 1, p**r):
        powers = []
        q = 2
        while q**r <= top:
            if all(q % d for d in range(2, math.isqrt(q) + 1)):
                powers.append(q**r)
            q += 1
        dense, sparse = _r_powers(top, r)
        assert dense + sparse.tolist() == powers, top
        assert all(q < sieve._COUNT_WINDOW for q in dense)
        assert all(q >= sieve._COUNT_WINDOW for q in sparse.tolist())


def test_mu_prime_values(mu_1e5):
    for p in (2, 3, 5, 7, 11, 99991):
        assert mu_1e5[p] == -1
    assert mu_1e5[1] == 1


def test_density_near_zeta_inverse():
    density = int(r_free_flags(100_000, 2)[1:].sum()) / 100_000
    assert 0.59 < density < 0.62


def test_factor_tables_match_trial_division():
    # whole-range oracle: every n <= 2*10^4 against trial division
    limit = 20_000
    mu = mobius_sieve(limit)
    assert mu.shape == (limit + 1,) and mu[0] == 0
    for n in range(1, limit + 1):
        factors = trial_factorize(n).factors
        squarefree = all(e == 1 for _, e in factors)
        assert mu[n] == ((-1) ** len(factors) if squarefree else 0), n


def test_tables_are_read_only(mu_1e5):
    with pytest.raises(ValueError):
        mu_1e5[5] = 0


def test_is_r_free_trial():
    assert is_r_free(4, 3)
    assert not is_r_free(4, 2)
    assert not is_r_free(8, 3)
    assert is_r_free(1, 2)


def test_trial_factorize_matches_table(mu_1e5):
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 100_000)
        fact = trial_factorize(n)
        squarefree = all(e == 1 for _, e in fact.factors)
        assert int(mu_1e5[n]) == ((-1) ** fact.omega if squarefree else 0)


def test_cache_roundtrip_bit_identical(tmp_path):
    path = tmp_path / "sieve.rfsv"
    assert save_cache(path, 10_000, [3, 2, 3]) == [6083, 8319]
    raw = path.read_bytes()
    # the header, then the packed flags of each r as the kernel sieves them
    header = np.array(10_000, "<u8").tobytes() + np.array([2, 2, 3], "<u4").tobytes()
    flags = b"".join(np.packbits(r_free_flags(10_000, r)).tobytes() for r in (2, 3))
    assert raw == b"RFSV2" + zlib.crc32(header + flags).to_bytes(4, "little") + header + flags
    # the bits unpack to the counts at every x up to the limit
    for i, r in enumerate((2, 3)):
        at = sieve._cache_size(10_000, 2) - (2 - i) * 1251
        bits = np.unpackbits(np.frombuffer(raw[at : at + 1251], dtype=np.uint8))
        for x in (0, 1, 7, 8, 9_999, 10_000):
            assert int(bits[1 : x + 1].sum()) == r_free_counts([x], r)[0], (r, x)
        assert not bits[10_001:].any()  # the pad bits


def test_cache_rejects_bad_magic(tmp_path, capsys):
    # sieve --cache overwrites only a file that begins with RFSV, the magic
    # of every cache version; any other file is refused and left as it is
    path = tmp_path / "bogus.rfsv"
    for content in (b"NOPE!" + b"\x00" * 64, b"RFS", b""):
        path.write_bytes(content)
        assert main(["sieve", "--limit", "10", "--r", "2", "--cache", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a sieve cache" in captured.err
        assert path.read_bytes() == content
        assert [p.name for p in tmp_path.iterdir()] == ["bogus.rfsv"]


def _save_over(tmp_path, damage) -> None:
    # save a cache of limit 1e4, r = 2, 3, damage it, save it again, and
    # check that the damaged file was never read: the second save returns
    # the true counts and leaves the bytes of a save to a fresh path
    path, true = tmp_path / "damaged.rfsv", tmp_path / "true.rfsv"
    save_cache(true, 10_000, {2, 3})
    raw = bytearray(true.read_bytes())
    damage(raw)
    path.write_bytes(bytes(raw))
    assert save_cache(path, 10_000, {2, 3}) == [r_free_counts([10_000], r)[0] for r in (2, 3)]
    assert path.read_bytes() == true.read_bytes()


@pytest.mark.parametrize("at", [21, -700])  # the first r value; a flag of r = 3
def test_save_cache_replaces_flipped_bit(tmp_path, at):
    def flip(raw):
        raw[at] ^= 0x01

    _save_over(tmp_path, flip)


def test_save_cache_replaces_nonzero_pad_bit(tmp_path):
    # 10001 flags fill 1251 bytes with 7 pad bits; the last one is set and
    # the checksum made to match
    def pad(raw):
        raw[-1] |= 0x01
        raw[5:9] = zlib.crc32(raw[9:]).to_bytes(4, "little")

    _save_over(tmp_path, pad)


def test_cache_starts_with_magic(tmp_path):
    path = tmp_path / "sieve.rfsv"
    save_cache(path, 10_000, {2, 3})
    assert path.read_bytes()[:5] == b"RFSV2"


def test_cache_save_replaces_atomically(tmp_path, monkeypatch):
    path = tmp_path / "sieve.rfsv"
    save_cache(path, 100, {2})
    before = path.read_bytes()

    crc32 = zlib.crc32

    def crash(data, crc=0):
        if memoryview(data).nbytes > 100:  # the header passes, the flags do not
            raise OSError("disk full")
        return crc32(data, crc)

    # a save that dies half-way leaves the old file and no temporary behind
    monkeypatch.setattr(zlib, "crc32", crash)
    with pytest.raises(OSError, match="disk full"):
        save_cache(path, 10_000, {2, 3})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.rfsv"]

    save_cache(path, 10_000, {2, 3})
    assert path.stat().st_size == sieve._cache_size(10_000, 2)
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.rfsv"]


def test_cache_save_holds_one_packed_array(tmp_path):
    # three r at 2^20 pack to 128 KiB each; the save holds one 1 MiB window
    # and the 128 KiB it packs to, not the packed flags of every r
    tracemalloc.start()
    try:
        counts = save_cache(tmp_path / "sieve.rfsv", 2**20, {2, 3, 4})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 2**17 + 2**15
    assert counts == [r_free_counts([2**20], r)[0] for r in (2, 3, 4)]


def test_build_holds_packed_flags_and_one_window(tmp_path):
    # two r of 2^22 + 1 flags, five windows each: the save holds one 1 MiB
    # window and its 128 KiB of packed flags, where two packed tables would
    # take 1 MiB and a uint8 flag per n 8 MiB
    tracemalloc.start()
    try:
        save_cache(tmp_path / "sieve.rfsv", 2**22, {2, 3})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 2**17 + 2**16
    assert (tmp_path / "sieve.rfsv").stat().st_size == sieve._cache_size(2**22, 2)
