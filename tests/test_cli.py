import ast
import builtins
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest

from conftest import SRC, wrong_mobius
import rfree.progressions as progressions
from rfree import SelfCheckError, count_r_free_bruteforce, r_free_counts, sieve, tau_value
from rfree.cli import _parse_int, main


def test_f_prints_twelve_decimals(capsys):
    assert main(["f", "--r", "2", "--k", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.810569469139"


def test_tau_sum_csv(capsys):
    assert main(["tau-sum", "--r", "2", "--x", "100,1000"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,sum,ratio"
    assert lines[1].startswith("100,482,")


def test_sieve_command_with_cache(tmp_path, capsys):
    cache = tmp_path / "s.rfsv"
    assert main(["sieve", "--limit", "1000", "--r", "2,3", "--cache", str(cache)]) == 0
    first = capsys.readouterr().out
    assert "r=2: 608" in first
    assert first.splitlines()[-1].startswith("built and saved in ")
    written = cache.read_bytes()
    # a second run sieves again and rewrites the same bytes
    assert main(["sieve", "--limit", "1000", "--r", "2,3", "--cache", str(cache)]) == 0
    second = capsys.readouterr().out
    assert second.splitlines()[:2] == first.splitlines()[:2]
    assert second.splitlines()[-1].startswith("built and saved in ")
    # the flags of r = 2 and 3, 126 packed bytes each
    assert second.splitlines()[-1].endswith("(limit 1000, rs (2, 3), 252 flag bytes)")
    assert cache.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == ["s.rfsv"]


def test_sieve_golden_cache_bytes_and_stdout(tmp_path, capsys):
    # the RFSV2 file and the stdout, timing masked, without a cache, cold,
    # again over the file it wrote, and at a smaller limit, which rewrites it
    cache = str(tmp_path / "s.rfsv")
    counts = "r=2: 60797 r-free integers <= 100003\nr=3: 83193 r-free integers <= 100003\n"
    tail = " in N.NNNs (limit 100003, rs (2, 3), 25002 flag bytes)\n"
    golden = "6f5fa12e5798d6e9eeaf684e0e61ff3835fbd4c422eeac673668b514d415e17c"
    runs = [
        (["--limit", "100003"], counts + "built" + tail),
        (["--limit", "100003", "--cache", cache], counts + "built and saved" + tail),
        (["--limit", "100003", "--cache", cache], counts + "built and saved" + tail),
    ]
    for args, expected in runs:
        assert main(["sieve", *args, "--r", "2,3"]) == 0
        assert re.sub(r" in \d+\.\d{3}s ", " in N.NNNs ", capsys.readouterr().out) == expected
        if "--cache" in args:
            assert hashlib.sha256(Path(cache).read_bytes()).hexdigest() == golden
    assert main(["sieve", "--limit", "99999", "--r", "2,3", "--cache", cache]) == 0
    assert re.sub(r" in \d+\.\d{3}s ", " in N.NNNs ", capsys.readouterr().out) == (
        "r=2: 60794 r-free integers <= 99999\nr=3: 83190 r-free integers <= 99999\n"
        "built and saved in N.NNNs (limit 99999, rs (2, 3), 25000 flag bytes)\n"
    )
    sieve.save_cache(tmp_path / "fresh.rfsv", 99999, [2, 3])
    assert Path(cache).read_bytes() == (tmp_path / "fresh.rfsv").read_bytes()


def test_sieve_prints_each_r_once(capsys):
    assert main(["sieve", "--limit", "100", "--r", "3,2,3,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "r=2: 61 r-free integers <= 100",
        "r=3: 85 r-free integers <= 100",
    ]
    assert len(lines) == 3
    assert lines[2].startswith("built in ")
    assert lines[2].endswith("s (limit 100, rs (2, 3), 26 flag bytes)")  # 2 * (100 + 8) // 8


def test_sieve_refuses_empty_r_before_reading_cache(tmp_path, capsys):
    cache = tmp_path / "s.rfsv"
    cache.write_bytes(b"not a cache")
    assert main(["sieve", "--limit", "100", "--r", ",", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--r must name at least one r value" in captured.err
    assert cache.read_bytes() == b"not a cache"


def test_sieve_refuses_r_below_2_before_reading_cache(tmp_path, capsys):
    # deleting the cache cannot help, so the refusal does not name it
    cache = tmp_path / "s.rfsv"
    assert main(["sieve", "--limit", "1000", "--r", "2", "--cache", str(cache)]) == 0
    capsys.readouterr()
    assert main(["sieve", "--limit", "1000", "--r", "1", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r must be >= 2, got 1" in captured.err
    assert "cache" not in captured.err


@pytest.mark.parametrize("limit", range(1000, 1008))  # every limit mod 8
def test_sieve_totals_match_r_free_counts(tmp_path, capsys, monkeypatch, limit):
    # a 64-flag window makes the save pack several windows, the last of
    # them cut at the limit
    monkeypatch.setattr(sieve, "_COUNT_WINDOW", 64)
    expected = [
        f"r={r}: {r_free_counts([limit], r)[0]} r-free integers <= {limit}" for r in (2, 3)
    ]
    cache, wider = str(tmp_path / "s.rfsv"), str(tmp_path / "wider.rfsv")
    # cold, over the file it wrote, without a cache, and over a cache
    # written at a larger limit
    assert main(["sieve", "--limit", str(limit + 9), "--r", "2,3", "--cache", wider]) == 0
    capsys.readouterr()
    for extra in (["--cache", cache], ["--cache", cache], [], ["--cache", wider]):
        assert main(["sieve", "--limit", str(limit), "--r", "2,3", *extra]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == expected, extra
    assert Path(wider).read_bytes() == Path(cache).read_bytes()


def _damaged_cache(path, damage):
    """Write at ``path`` a sieve cache of limit 1e4, r = 2, 3, damaged as
    named, or a true cache of another limit or other r values."""
    if damage == "other limit":
        sieve.save_cache(path, 1000, [2, 3])
        return
    if damage == "other r":
        sieve.save_cache(path, 10_000, [2])
        return
    sieve.save_cache(path, 10_000, [2, 3])
    raw = bytearray(path.read_bytes())
    if damage == "cut 700":
        raw = raw[:-700]
    elif damage == "cut header":
        raw = raw[:10]
    elif damage == "trailing byte":
        raw += b"\x00"
    elif damage == "old format":
        raw[:5] = b"RFSV1"
    elif damage.startswith("flipped "):
        # byte 21 is the first r value's low byte (r=2 becomes r=3); 129
        # and -700 lie in the flags of r = 2 and r = 3
        raw[int(damage.split()[1])] ^= 0x01
    else:  # "pad bit": the last pad bit of r = 3, the checksum made to match
        raw[-1] |= 0x01
        raw[5:9] = zlib.crc32(raw[9:]).to_bytes(4, "little")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage", [
    "cut 700", "cut header", "trailing byte", "old format", "flipped 21",
    "flipped 129", "flipped -700", "pad bit", "other limit", "other r",
])
def test_sieve_rewrites_damaged_cache(tmp_path, capsys, damage):
    # no file is read: whatever RFSV file lies at the path, sieve prints
    # the true counts and replaces it with the true file
    cache = tmp_path / "s.rfsv"
    _damaged_cache(cache, damage)
    assert main(["sieve", "--limit", "1e4", "--r", "2,3", "--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[:2] == [
        f"r={r}: {r_free_counts([10_000], r)[0]} r-free integers <= 10000" for r in (2, 3)
    ]
    sieve.save_cache(tmp_path / "true.rfsv", 10_000, [2, 3])
    assert cache.read_bytes() == (tmp_path / "true.rfsv").read_bytes()


@pytest.mark.parametrize("argv,message", [
    ("--limit 1e4 --r 1", "r must be >= 2, got 1"),
    ("--limit 1e4 --r ,", "--r must name at least one r value"),
    ("--limit -5 --r 2", "limit must be >= 1"),
    ("--limit 5e9 --r 2", "outside [0, 2**32)"),
])
def test_sieve_refused_options_leave_cache_untouched(tmp_path, capsys, argv, message):
    cache = tmp_path / "s.rfsv"
    _damaged_cache(cache, "cut 700")
    before = cache.read_bytes()
    assert _exit_code(["sieve", *argv.split(), "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert cache.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.rfsv"]


@pytest.mark.parametrize("damage", ["cut", "flipped", "missing directory"])
def test_error_cache_has_no_effect(tmp_path, capsys, monkeypatch, damage):
    # error counts without a table: it prints the true R and never opens
    # the --cache path, whether the cache is cut 700 bytes short, has a
    # flipped flag bit, or lies in a directory that does not exist
    cache = tmp_path / "s.rfsv"
    assert main(["sieve", "--limit", "1e4", "--r", "3", "--cache", str(cache)]) == 0
    raw = bytearray(cache.read_bytes())
    if damage == "cut":
        cache.write_bytes(raw[:-700])
    elif damage == "flipped":
        raw[-700] ^= 0x01
        cache.write_bytes(bytes(raw))
    else:
        cache = tmp_path / "missing" / "s.rfsv"
    opened = []
    real_open = builtins.open

    def spy_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    capsys.readouterr()
    code = main(["error", "--x", "1e4", "--r", "3", "--k", "1", "--l", "0",
                 "--cache", str(cache)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, row = (line.split(",") for line in captured.out.splitlines())
    assert int(row[header.index("R")]) == count_r_free_bruteforce(10**4, 3, 1, 0)
    assert str(cache) not in opened
    assert not (tmp_path / "missing").exists()


# runs ``main(argv)`` and prints, as the last line of stderr, every file
# open under the path given first that an audit hook saw: [path, mode]
_AUDITED_MAIN = """
import json, os, sys
from rfree.cli import main
watched, argv = sys.argv[1], sys.argv[2:]
opens = []
def hook(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        if os.fspath(args[0]).startswith(watched):
            opens.append([os.fspath(args[0]), args[1]])
sys.addaudithook(hook)
code = main(argv)
print(json.dumps(opens), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    "sieve --limit 1e4 --r 2,3 --cache {cache}",
    "error --x 1e4 --r 3 --k 1 --l 0 --cache {cache}",
    "bv-sum --r 2 --A 1 --x 1e4 --timing none --cache {cache}",
])
def test_no_command_reads_a_cache(tmp_path, argv):
    # each command, pointed at a cache cut 700 bytes short, prints the true
    # output; error and bv-sum open nothing at the path, and sieve opens it
    # once, read-only, for the four magic bytes of its overwrite guard, and
    # writes the flags to a temporary file beside it
    cache = tmp_path / "s.rfsv"
    _damaged_cache(cache, "cut 700")
    done = subprocess.run(
        [sys.executable, "-c", _AUDITED_MAIN, str(cache), *argv.format(cache=cache).split()],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    opens = json.loads(done.stderr.splitlines()[-1])
    command = argv.split()[0]
    if command == "sieve":
        assert done.stdout.splitlines()[:2] == [
            f"r={r}: {r_free_counts([10_000], r)[0]} r-free integers <= 10000" for r in (2, 3)
        ]
        # the audit event gives the mode without its "b"
        assert opens[0] == [str(cache), "r"]
        assert [mode for _, mode in opens[1:]] == ["w"]
        assert re.fullmatch(re.escape(str(cache)) + r"\.\d+\.tmp", opens[1][0])
    else:
        assert opens == []
    if command == "error":
        header, row = (line.split(",") for line in done.stdout.splitlines())
        assert int(row[header.index("R")]) == count_r_free_bruteforce(10**4, 3, 1, 0)


def test_error_csv(capsys):
    assert main(["error", "--x", "100", "--r", "2", "--k", "4", "--l", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("x,r,k,l,g,s,t,g_is_r_free,R,main_term,error_term")
    cells = lines[1].split(",")
    assert cells[:7] == ["100", "2", "4", "2", "2", "2", "1"]
    assert cells[8] == "20"


def test_error_json_with_split(capsys):
    code = main([
        "error", "--x", "100", "--r", "2", "--k", "4", "--l", "2",
        "--z", "3", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["R"] == 20
    assert payload["small_sum"] + payload["large_sum"] == 20
    assert payload["split_exact"] is True


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_error_with_split_sieves_once(monkeypatch, capsys, fmt):
    # the report and the split share one pass of flag windows over [0, x]
    calls = []
    kernel = sieve._sieve_window

    def counted(*args):
        calls.append(args[1])
        kernel(*args)

    monkeypatch.setattr(sieve, "_COUNT_WINDOW", 64)
    monkeypatch.setattr(sieve, "_sieve_window", counted)
    argv = ["error", "--x", "1000", "--r", "2", "--k", "7", "--l", "3", "--format", fmt]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert calls == list(range(0, 1001, 64))
    calls.clear()
    assert main(argv + ["--z", "5"]) == 0
    assert calls == list(range(0, 1001, 64))
    split = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(split)
        assert payload["R"] == count_r_free_bruteforce(1000, 2, 7, 3)
        assert payload["split_exact"] is True
        assert json.loads(plain).items() <= payload.items()
    else:
        assert split.splitlines()[1].startswith(plain.splitlines()[1])


def test_error_json_zero_convention(capsys):
    assert main(["error", "--x", "100", "--r", "2", "--k", "4", "--l", "0",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["g_is_r_free"] is False
    assert payload["R"] == 0 and payload["error_term"] == 0.0


def test_verify_lemmas_clean_run(capsys):
    code = main(["verify-lemmas", "--x", "5000", "--r", "2",
                 "--trials", "40", "--seed", "11"])
    assert code == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_verify_lemmas_r3(capsys):
    code = main(["verify-lemmas", "--x", "4000", "--r", "3",
                 "--trials", "30", "--seed", "5"])
    assert code == 0
    assert "failures=0" in capsys.readouterr().out


def test_residues_csv_and_summary(capsys):
    assert main(["residues", "--r", "2", "--s-max", "8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "s,a,count,ratio"
    assert lines[-1].startswith("# max ratio 2.0 at a=1 s=8")


def test_residues_streams_rows(tmp_path):
    # rows go out as they are made: a list of them would take about 3 MB here
    out = tmp_path / "residues.csv"
    with out.open("w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["residues", "--r", "3", "--s-max", "20000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20, peak
    lines = out.read_text().splitlines()
    assert lines[0] == "s,a,count,ratio" and len(lines) == 20_002
    assert lines[-1] == "# max ratio 1.0 at a=0 s=1 (r=3)"


def test_bv_sum_stdout(capsys):
    code = main(["bv-sum", "--r", "2", "--A", "1", "--x", "1e4", "--timing", "none"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,r,A,K,S,normalized,wall_seconds"
    assert lines[1].startswith("10000,2,1.0,5,")
    assert lines[1].endswith(",0.000000")


def test_bv_sum_vacuous_config_exit_2(capsys):
    code = main(["bv-sum", "--r", "2", "--A", "9", "--x", "1e4"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bv_sum_csv_plot_cache(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    plot_path = tmp_path / "rows.svg"
    cache = tmp_path / "c.rfsv"
    code = main([
        "bv-sum", "--r", "2", "--A", "1", "--x", "1e4,2e4",
        "--csv", str(csv_path), "--plot", str(plot_path),
        "--cache", str(cache), "--timing", "none",
    ])
    assert code == 0
    assert csv_path.read_text().startswith("x,r,A,K,S,normalized,wall_seconds")
    assert "<svg" in plot_path.read_text()
    # --cache has no effect on bv-sum: no file is written, and a second
    # run reproduces the CSV exactly
    assert not cache.exists()
    first = csv_path.read_text()
    code = main([
        "bv-sum", "--r", "2", "--A", "1", "--x", "1e4,2e4",
        "--csv", str(csv_path), "--cache", str(cache), "--timing", "none",
    ])
    assert code == 0
    assert csv_path.read_text() == first


def test_bv_sum_threads_identical_bytes(tmp_path):
    outs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.csv"
        code = main([
            "bv-sum", "--r", "2", "--A", "1", "--x", "1e4",
            "--threads", threads, "--csv", str(path), "--timing", "none",
        ])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_bv_sum_threads_zero_exit_2(capsys):
    code = main(["bv-sum", "--r", "2", "--A", "1", "--x", "1e4", "--threads", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threads" in captured.err


def _drop_last_prime_power(monkeypatch):
    """Make the flag sieve lose its largest p^r <= top."""
    true = sieve._r_powers

    def short(top, r):
        dense, sparse = true(top, r)
        return (dense, sparse[:-1]) if sparse.size else (dense[:-1], sparse)

    monkeypatch.setattr(sieve, "_r_powers", short)


@pytest.fixture(scope="module")
def r_1e6_7_2():
    """R(10^6; 7, 2) at r = 2 by trial division, once for the module (1.4 s)."""
    return count_r_free_bruteforce(10**6, 2, 7, 2)


@pytest.mark.parametrize("argv", [
    "sieve --limit 1e6 --r 2",
    "sieve --limit 1e6 --r 2 --cache {cache}",
    "error --x 1e6 --r 2 --k 7 --l 2",
    "error --x 1e6 --r 2 --k 7 --l 2 --format json",
    "error --x 1e6 --r 2 --k 7 --l 2 --z 100",
])
def test_flags_missing_a_prime_square_exit_3(monkeypatch, capsys, tmp_path, argv, r_1e6_7_2):
    # the sieve loses 997^2, the last p^2 <= 1e6, and 997^2 = 2 (mod 7):
    # unchecked, sieve printed 607927 and error R = 88661 with exit 0
    assert r_free_counts([10**6], 2) == [607926]
    assert r_1e6_7_2 == 88660
    _drop_last_prime_power(monkeypatch)
    assert r_free_counts([10**6], 2) == [607927]
    assert main(argv.format(cache=tmp_path / "s.rfsv").split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact-identity self-check failed" in captured.err


@pytest.mark.parametrize("rs", ["2", "3", "2,3"])
@pytest.mark.parametrize("before", ["missing", "cache"])
def test_sieve_cache_of_wrong_flags_never_lands(monkeypatch, capsys, tmp_path, rs, before):
    # save_cache checks each total before its file replaces the path:
    # unchecked, a failed total exited 3 but left a 125026-byte file of the
    # wrong flags at the path (97^3 is the last p^3 <= 1e6)
    cache = tmp_path / "s.rfsv"
    if before == "cache":
        sieve.save_cache(cache, 10_000, [2, 3])
    old = cache.read_bytes() if cache.exists() else None
    _drop_last_prime_power(monkeypatch)
    assert main(["sieve", "--limit", "1e6", "--r", rs, "--cache", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the flags count" in captured.err
    if old is None:
        assert not cache.exists()
    else:
        assert cache.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("argv", [
    "verify-lemmas --x 1e4 --r 2 --trials 50 --seed 1",
    "verify-lemmas --x 1e4 --r 3 --trials 50 --seed 1",
    "error --x 1e4 --r 2 --k 12 --l 5",
    "error --x 1e4 --r 2 --k 12 --l 5 --z 30",
    "error --x 1e4 --r 2 --k 12 --l 5 --format json",
])
def test_split_off_by_one_exit_3(monkeypatch, capsys, argv):
    # decompose_many checks small + large = R for every trial before it
    # returns a report: unchecked, verify-lemmas printed failures=1 on stdout
    true = progressions._split_sums

    def off(*args):
        sums = true(*args)
        small, large = sums[len(sums) // 2]
        sums[len(sums) // 2] = (small + 1, large)
        return sums

    monkeypatch.setattr(progressions, "_split_sums", off)
    with pytest.raises(SelfCheckError, match=r"the split of R\(10000; 12, 5\) at z=3"):
        progressions.decompose_many(10**4, 2, [(7, 1, 2.0), (12, 5, 3.0), (12, 5, 9.0)])
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"the split of R\(10000; \d+, \d+\) at z=\d", captured.err)
    assert "not the count" in captured.err


def test_cli_compares_no_identity():
    # each exact identity is checked in the layer that forms both sides,
    # so cli raises no SelfCheckError and imports no Mobius table
    tree = ast.parse((SRC / "rfree" / "cli.py").read_text())
    raised = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and "SelfCheckError" in ast.unparse(node)]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert raised == []
    assert imported.isdisjoint({"_root_mu", "_d_terms"})
    assert "_check_flag_total" in imported  # the scan sees cli's imports


def test_bv_sum_self_check_failure_exit_3(monkeypatch, capsys):
    from rfree.errors import SelfCheckError
    import rfree.harness as harness

    def boom(config):
        raise SelfCheckError("forced for the exit-code contract")

    # the bv-sum handler looks run_experiment up in its module when it runs
    monkeypatch.setattr(harness, "run_experiment", boom)
    code = main(["bv-sum", "--r", "2", "--A", "1", "--x", "1e4"])
    assert code == 3
    assert "self-check" in capsys.readouterr().err


@pytest.mark.parametrize("argv,wrong", [
    # mu(9998) = 1 and mu(9994) = -1 swapped: both have floor(1e8 / d^2) = 1,
    # so the partition totals cannot see it; unchecked, bv-sum exits 0 with
    # S = 21296.39963141529 for 21302.102239391214
    ("bv-sum --r 2 --A 1 --x 1e8", {9998: -1, 9994: 1}),
    ("bv-sum --r 2 --A 1 --x 1e6", {997: 1}),  # one flipped sign
    ("verify-lemmas --x 1e6 --r 2 --trials 100 --seed 3", {997: 1}),
    ("error --x 1000000 --r 2 --k 7 --l 3 --z 50", {30: 1}),
    ("sieve --limit 1e6 --r 2,3", {997: 1}),
    ("error --x 1000000 --r 2 --k 7 --l 3", {30: 1}),
])
def test_wrong_mobius_table_exit_3(monkeypatch, capsys, argv, wrong):
    true = sieve.mobius_sieve(10**4)
    assert all(true[n] == -value for n, value in wrong.items())  # sign flips
    wrong_mobius(monkeypatch, wrong)
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mu * 1 = epsilon fails at n=" in captured.err


@pytest.mark.parametrize("argv,expected", [
    ("--r 2 --A 1 --x 1e4,1e5,1e6",
     "x,r,A,K,S,normalized,wall_seconds\n"
     "10000,2,1.0,5,15.216535438120445,0.014014947066732706,0.000000\n"
     "100000,2,1.0,16,100.90276392912892,0.011616860003255479,0.000000\n"
     "1000000,2,1.0,52,631.4144140065546,0.00872331250315838,0.000000\n"),
    ("--r 3 --A 1 --x 1e5,1e6",
     "x,r,A,K,S,normalized,wall_seconds\n"
     "100000,3,1.0,3,3.507739280241367,0.0004038434088396718,0.000000\n"
     "1000000,3,1.0,11,37.05600189125107,0.0005119475853645232,0.000000\n"),
    ("--r 2 --A 1 --x 1e6,3e6,1e7",
     "x,r,A,K,S,normalized,wall_seconds\n"
     "1000000,2,1.0,52,631.4144140065546,0.00872331250315838,0.000000\n"
     "3000000,2,1.0,93,1508.87440012751,0.007501179387880144,0.000000\n"
     "10000000,2,1.0,178,3817.350750764039,0.006152842453407233,0.000000\n"),
    ("--r 3 --A 1 --x 1e7",
     "x,r,A,K,S,normalized,wall_seconds\n"
     "10000000,3,1.0,42,268.04238220254774,0.0004320332754851393,0.000000\n"),
    ("--r 2 --A 1 --x 1e8",
     "x,r,A,K,S,normalized,wall_seconds\n"
     "100000000,2,1.0,634,21302.102239391214,0.003923992245268583,0.000000\n"),
], ids=["r2", "r3", "r2-bench", "r3-1e7", "r2-1e8"])
def test_bv_sum_golden_bytes(argv, expected, capsys):
    # S(x) is the exact sum over every admissible class; any change to the
    # counts, the main terms, the maximum or the fold order moves these bytes
    assert main(["bv-sum", *argv.split(), "--timing", "none"]) == 0
    assert capsys.readouterr().out == expected


# the totals and ratios tau-sum printed when it sieved tau_r at every n <= x
@pytest.mark.parametrize("argv,expected", [
    ("--r 1 --x 3", "3,3,1.0\n"),
    ("--r 2 --x 3", "3,5,1.5170653777113956\n"),
    ("--r 3 --x 3", "3,7,1.9332493826105204\n"),
    ("--r 4 --x 3", "3,9,2.262496400876842\n"),
    ("--r 1 --x 65535", "65535,65535,1.0\n"),
    ("--r 2 --x 65535", "65535,736957,1.013967414437903\n"),
    ("--r 3 --x 65535", "65535,4594669,0.5700214967502544\n"),
    ("--r 4 --x 65535", "65535,20913389,0.23394651138555314\n"),
    ("--r 1 --x 65536", "65536,65536,1.0\n"),
    ("--r 2 --x 65536", "65536,736974,1.0139739370957404\n"),
    ("--r 3 --x 65536", "65536,4594822,0.5700302114511817\n"),
    ("--r 4 --x 65536", "65536,20914358,0.23395281547670324\n"),
    ("--r 1 --x 65537", "65537,65537,1.0\n"),
    ("--r 2 --x 65537", "65537,736976,1.0139598219404853\n"),
    ("--r 3 --x 65537", "65537,4594825,0.5700203172584463\n"),
    ("--r 4 --x 65537", "65537,20914362,0.23394832480351346\n"),
    ("--r 1 --x 1e6", "1000000,1000000,1.0\n"),
    ("--r 2 --x 1e6", "1000000,13970034,1.0111847797001356\n"),
    ("--r 3 --x 1e6", "1000000,106030594,0.5555169519302625\n"),
    ("--r 4 --x 1e6", "1000000,578262093,0.2192925645672282\n"),
    ("--r 1 --x 1e7", "10000000,10000000,1.0\n"),
    ("--r 2 --x 1e7", "10000000,162725364,1.009581823584258\n"),
    ("--r 3 --x 1e7", "10000000,1421760251,0.5472665585403432\n"),
    ("--r 4 --x 1e7", "10000000,8840109380,0.21111371710772106\n"),
    ("--r 20 --x 1e4", "10000,92675189684,4.423087827603579e-12\n"),
    ("--r 3 --x 10000,100000,1000000", "10000,496623,0.5854306675312421\n100000,7518850,0.5672572232303094\n1000000,106030594,0.5555169519302625\n"),
    ("--r 2 --x 1000,100,1000", "1000,7069,1.0233425641913625\n100,482,1.0466497013868368\n1000,7069,1.0233425641913625\n"),
])
def test_tau_sum_golden_bytes(argv, expected, capsys):
    assert main(["tau-sum", *argv.split()]) == 0
    assert capsys.readouterr().out == "x,sum,ratio\n" + expected


def test_tau_sum_past_int64(capsys):
    # the total passes 2**63; it is the exact sum of tau_value
    assert main(["tau-sum", "--r", "150", "--x", "8192"]) == 0
    assert capsys.readouterr().out == "x,sum,ratio\n8192,23895939462008006181,1.6009618250232013e-127\n"
    assert sum(tau_value(150, n) for n in range(1, 8193)) == 23895939462008006181


@pytest.mark.parametrize("r,seed,expected", [
    (2, 1, 'trials=1000 failures=0 max_small_residual=0.3056488400290332 max_large_ratio=0.17362259748141806\n'),
    (3, 5, 'trials=1000 failures=0 max_small_residual=0.6704838367706755 max_large_ratio=0.08071584059603173\n'),
], ids=["r2-seed1", "r3-seed5"])
def test_verify_lemmas_golden_bytes(r, seed, expected, capsys):
    # the batched split must leave every trial's sums and probe ratios as
    # they were when each trial was decomposed on its own
    argv = ["verify-lemmas", "--x", "1e6", "--trials", "1000", "--r", str(r), "--seed", str(seed)]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("r,k,l,expected", [
    (2, 6, 2,
     '{"x": 100000, "r": 2, "k": 6, "l": 2, "g": 2, "s": 3, "t": 1, "g_is_r_free": true, "R": 7592, "main_term": 7599.0887731751045, "error_term": -7.088773175104507, "z": 7.5, "small_sum": 7830, "large_sum": -238, "split_exact": true}\n'),
    (2, 10, 5,
     '{"x": 100000, "r": 2, "k": 10, "l": 5, "g": 5, "s": 2, "t": 1, "g_is_r_free": true, "R": 6755, "main_term": 6754.7455761556475, "error_term": 0.2544238443524591, "z": 7.5, "small_sum": 6948, "large_sum": -193, "split_exact": true}\n'),
    (2, 178, 89,
     '{"x": 100000, "r": 2, "k": 178, "l": 89, "g": 89, "s": 2, "t": 1, "g_is_r_free": true, "R": 451, "main_term": 450.3163717437098, "error_term": 0.6836282562902056, "z": 7.5, "small_sum": 462, "large_sum": -11, "split_exact": true}\n'),
    (3, 6, 2,
     '{"x": 100000, "r": 3, "k": 6, "l": 2, "g": 2, "s": 3, "t": 1, "g_is_r_free": true, "R": 12341, "main_term": 12341.482999823169, "error_term": -0.48299982316893875, "z": 7.5, "small_sum": 12363, "large_sum": -22, "split_exact": true}\n'),
    (3, 10, 5,
     '{"x": 100000, "r": 3, "k": 10, "l": 5, "g": 5, "s": 2, "t": 1, "g_is_r_free": true, "R": 9201, "main_term": 9200.81886725168, "error_term": 0.18113274831921444, "z": 7.5, "small_sum": 9217, "large_sum": -16, "split_exact": true}\n'),
    (3, 178, 89,
     '{"x": 100000, "r": 3, "k": 178, "l": 89, "g": 89, "s": 2, "t": 1, "g_is_r_free": true, "R": 535, "main_term": 534.0632596769482, "error_term": 0.9367403230518221, "z": 7.5, "small_sum": 535, "large_sum": 0, "split_exact": true}\n'),
], ids=[f"r{r}-{k}-{l}" for r in (2, 3) for k, l in ((6, 2), (10, 5), (178, 89))])
def test_error_split_golden_bytes(r, k, l, expected, capsys):
    argv = ["error", "--x", "1e5", "--r", str(r), "--k", str(k), "--l", str(l),
            "--z", "7.5", "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "text,value",
    [("1e7", 10**7), ("10000000", 10**7), ("1.5e6", 1_500_000), (" 42 ", 42)],
)
def test_parse_int_accepts_exact_integers(text, value):
    assert _parse_int(text) == value


@pytest.mark.parametrize(
    "text", ["1000.7", "1.5", "1e-3", "abc", "", "inf", "nan", "1e999999999"]
)
def test_parse_int_refuses_non_integers(text):
    with pytest.raises(ValueError):
        _parse_int(text)


@pytest.mark.parametrize("argv", [
    "sieve --limit 1.5 --r 2",
    "tau-sum --r 1.5 --x 100",
    "f --r 1.5 --k 4",
    "f --r 2 --k 1.5",
    "error --x 1.5 --r 2 --k 4 --l 2",
    "error --x 100 --r 1.5 --k 4 --l 2",
    "error --x 100 --r 2 --k 1.5 --l 2",
    "error --x 100 --r 2 --k 4 --l 1.5",
    "verify-lemmas --x 1.5 --r 2",
    "verify-lemmas --x 100 --r 1.5",
    "verify-lemmas --x 100 --r 2 --trials 1.5",
    "verify-lemmas --x 100 --r 2 --seed 1.5",
    "residues --r 1.5 --s-max 8",
    "residues --r 2 --s-max 1.5",
    "bv-sum --r 1.5 --A 1 --x 1e4",
    "bv-sum --r 2 --A 1 --x 1e4 --threads 1.5",
])
def test_integer_option_refusal_states_the_rule(argv, capsys):
    # every integer option refuses 1.5 by its name and the rule it breaks
    words = argv.split()
    option = words[words.index("1.5") - 1]
    assert _exit_code(words) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: '1.5' is not an exact 64-bit integer" in captured.err
    assert "_parse_int" not in captured.err and "invalid" not in captured.err


@pytest.mark.parametrize("argv,plain", [
    ("residues --r 2 --s-max 1e2", "residues --r 2 --s-max 100"),
    ("f --r 2e0 --k 1.2e1", "f --r 2 --k 12"),
    ("tau-sum --r 3e0 --x 1e3", "tau-sum --r 3 --x 1000"),
    ("error --x 1e4 --r 2e0 --k 4e0 --l 2e0", "error --x 10000 --r 2 --k 4 --l 2"),
    ("verify-lemmas --x 1e4 --r 3 --trials 5e1 --seed 7e0",
     "verify-lemmas --x 10000 --r 3 --trials 50 --seed 7"),
    ("bv-sum --r 2e0 --A 1 --x 1e4 --threads 1e0 --timing none",
     "bv-sum --r 2 --A 1 --x 10000 --threads 1 --timing none"),
])
def test_integer_options_take_float_notation(argv, plain, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert main(plain.split()) == 0
    assert out == capsys.readouterr().out


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("rfree ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 7  # one per subcommand
    monkeypatch.chdir(tmp_path)  # the files they write stay out of the checkout
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses an argument of the wrong type
        return exc.code


@pytest.mark.parametrize("argv", [
    "error --x 1000.7 --r 2 --k 3 --l 1",
    "tau-sum --r 2 --x 1e3,2.5",
    "error --x 1e4 --r 2 --k 0 --l 0",
    "error --x 1e4 --r 2 --l 5 --k 3",
    "residues --r 2 --s-max 1",
    "residues --r 1 --s-max 10",
    "residues --r 3 --s-max 5e9",
    "tau-sum --r 2 --x 2",
    "f --r 2 --k 0",
    "sieve --limit 100 --r 2,1",
    "sieve --limit 100 --r ,",
    "bv-sum --r 2 --A 1 --x 1e5,abc",
    "bv-sum --r 2 --A 1 --x 5e9",
    "sieve --limit 5e9 --r 2",
    "sieve --limit 5e9 --r 2 --cache {tmp}/c.rfsv",
    "tau-sum --r 2 --x 5e9",
    "tau-sum --r 0 --x 100",
    "tau-sum --r 200 --x 4e9,3",
    "verify-lemmas --x 1e4 --r 2 --trials -1",
    "verify-lemmas --x 1e4 --r 2 --trials 0",
    "error --x 1e4 --r 2 --k 3 --l 1 --z nan",
    "error --x 1e4 --r 2 --k 3 --l 1 --z inf",
    "bv-sum --r 2 --A 1 --x 1e4 --sample-l 2",
    "bv-sum --r 2 --A 1 --x 1e4 --seed 3",
    "error --x 1e4 --r 2 --k 4 --l 0 --z nan",
    "error --x 1e4 --r 2 --k 4 --l 0 --z -5",
    "error --x 100 --r 2 --k 7 --l 3 --z abc",
    "bv-sum --r 2 --A 1 --x 1e4 --csv /nonexistent/x.csv",
    "bv-sum --r 2 --A 1 --x 1e4 --plot /nonexistent/dir/p.svg",
    "sieve --limit 10 --r 2 --cache /nonexistent/d/c.rfsv",
    "error --x 5e9 --r 2 --k 3 --l 1",
    "error --x 0 --r 2 --k 3 --l 1",
    "verify-lemmas --x 5e9 --r 2",
    "verify-lemmas --x 0 --r 2",
    "sieve --limit 100 --r 99999999999",
    "sieve --limit 1e6 --r 5000000",
    "sieve --limit 100 --r 64",
    "error --x 100 --r 99999999999 --k 4 --l 0",
    "verify-lemmas --x 100 --r 99999999999 --trials 2",
    "bv-sum --r 99999999999 --A 1 --x 1e4",
    "bv-sum --r 64 --A 1 --x 1e4",
    "bv-sum --r 2 --A 1e308 --x 1e4",
])
def test_refused_input_exit_2(argv, capsys, tmp_path):
    assert _exit_code(argv.format(tmp=tmp_path).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()
    # the range is refused before any file is made: no cache, no temporary
    assert list(tmp_path.iterdir()) == []
    if "--z" in argv:
        assert "z must be a finite number >= 1" in captured.err
    if any(f"--r {r}" in argv for r in ("64", "5000000", "99999999999")):
        assert "r must be below 64" in captured.err
    if "--A 1e308" in argv:  # (log x)^(A + r - 1) overflows: the threshold is 0
        assert "use a larger x or a smaller A" in captured.err
