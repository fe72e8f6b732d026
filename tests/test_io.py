"""File formats, catalogue access and the command line."""

import concurrent.futures
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schemehall as sh
from schemehall import catalogue, cli, formats, report, scheme as scheme_module
from schemehall.cli import main
from schemehall.report import DEFAULT_PI_SETS, render_jsonl, report_records

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "schemehall" / "data"
SCHEMES = DATA / "schemes"
# parses, but the identity relation appears off the diagonal at (1, 2)
BAD_SCHEME = "3 2\n0 1 1\n1 0 0\n1 1 0\n"


# -------------------------------------------------------------------- formats

def test_parse_one_point():
    sf = formats.parse_scheme("1 1\n0\n")
    assert (sf.n_points, sf.rank, sf.matrix) == (1, 1, ((0,),))


def test_parse_five_cycle():
    text = (
        "5 3\n"
        "0 1 2 2 1\n"
        "1 0 1 2 2\n"
        "2 1 0 1 2\n"
        "2 2 1 0 1\n"
        "1 2 2 1 0\n"
    )
    sf = formats.parse_scheme(text, name="pentagon")
    assert sf.rank == 3
    scheme = sf.scheme()
    assert scheme.valencies == (1, 2, 2)


def test_round_trip_is_byte_identical():
    for path in sorted(SCHEMES.glob("*.scm")):
        text = path.read_text("utf-8")
        again = formats.render_scheme(formats.parse_scheme(text))
        assert again == text, path.name


def test_parse_errors_carry_line_numbers():
    with pytest.raises(sh.FormatSyntaxError, match="line 0"):
        formats.parse_scheme("")
    with pytest.raises(sh.FormatSyntaxError, match="line 1"):
        formats.parse_scheme("abc\n")
    with pytest.raises(sh.NotSquareError, match="line 3"):
        formats.parse_scheme("2 2\n0 1\n1\n")
    with pytest.raises(sh.LabelGapError, match="rank 3"):
        formats.parse_scheme("2 3\n0 1\n1 0\n")
    with pytest.raises(sh.LabelGapError, match=r"got \[0, 2\]"):
        formats.parse_scheme("2 2\n0 2\n2 0\n")


@pytest.mark.parametrize("text, error, message", [
    ("2\n0 1\n1 0\n", sh.FormatSyntaxError, "header must be 'n_points rank'"),
    ("0 1\n", sh.FormatSyntaxError, "header values must be positive"),
    ("2 2\n0 1\n", sh.NotSquareError, "expected 2 matrix rows, found 1"),
])
def test_scheme_header_and_row_count_errors(text, error, message):
    with pytest.raises(error, match=message):
        formats.parse_scheme(text)


@pytest.mark.parametrize("text, error, message", [
    ("# only a comment\n", sh.FormatSyntaxError, "empty group file"),
    ("2 2\n0 1\n1 0\n", sh.FormatSyntaxError, "header must be the group order"),
    ("0\n", sh.FormatSyntaxError, "header must be the group order"),
    ("x\n", sh.FormatSyntaxError, "line 1: expected integers"),
    ("2\n0 1\n", sh.NotSquareError, "expected 2 table rows, found 1"),
    ("2\n0 1\n1\n", sh.NotSquareError, "line 3: row has 1 entries, expected 2"),
])
def test_group_header_and_row_errors(text, error, message):
    with pytest.raises(error, match=message):
        formats.parse_group(text)


def test_nonzero_diagonal_is_remapped_with_warning():
    with pytest.warns(UserWarning, match="diagonal label 1 remapped to 0"):
        sf = formats.parse_scheme("2 2\n1 0\n0 1\n")
    assert sf.matrix == ((0, 1), (1, 0))


def test_nonconstant_diagonal_parses_unchanged_and_fails_validation():
    """Labels 1, 0, 0 on the diagonal are not remapped; validate_scheme
    names the first diagonal cell that is not 0."""
    sf = formats.parse_scheme("3 2\n0 1 1\n1 1 0\n1 0 0\n")
    assert sf.matrix == ((0, 1, 1), (1, 1, 0), (1, 0, 0))
    with pytest.raises(sh.IdentityViolationError) as exc:
        sf.scheme()
    assert str(exc.value) == "diagonal entry (1, 1) is not 0"


def test_group_round_trip():
    gf = catalogue.bundled_group("s4")
    assert gf.order == 24
    text = formats.render_group(gf)
    assert formats.render_group(formats.parse_group(text)) == text
    sh.validate_group(gf.table)


# ------------------------------------------------------------------ catalogue

def test_split_catalogue_order5():
    text = (DATA / "catalogue" / "order05.txt").read_text("utf-8")
    files = catalogue.split_catalogue(text, 5)
    assert [f.name for f in files] == ["scheme5_1", "scheme5_2", "scheme5_3"]
    # the 5-cycle distance scheme is among them
    ranks = sorted(f.rank for f in files)
    assert ranks == [2, 3, 5]


def test_split_catalogue_skips_metadata_lines():
    body = "upstream metadata\n0 1\n1 0\n# trailing comment\n"
    files = catalogue.split_catalogue(body, 2)
    assert len(files) == 1
    assert files[0].matrix == ((0, 1), (1, 0))
    assert files[0].name == "scheme2_1"


def test_split_catalogue_rejects_ragged_stream():
    with pytest.raises(sh.UnrecognizedCatalogueFormatError):
        catalogue.split_catalogue("0 1\n1 0\n0\n", 2)


@pytest.mark.parametrize("order", [0, -2])
def test_split_catalogue_rejects_an_order_below_one(order):
    with pytest.raises(ValueError, match=f"at least 1, got {order}"):
        catalogue.split_catalogue("0 1\n1 0\n", order)


@pytest.mark.parametrize("order", [0, -3, True, 2.5, 2.0])
def test_catalogue_doors_check_the_order_before_any_read(order, tmp_path, served, monkeypatch):
    """An order that is not an int of at least 1 is refused by all three
    doors, by fetch_catalogue before any cache, mirror or network read:
    no URL is requested and nothing is cached; by bundled_catalogue
    before it looks for a bundled file."""
    _, urls = served
    message = "^" + re.escape(f"scheme order must be at least 1, got {order}") + "$"
    with pytest.raises(ValueError, match=message):
        catalogue.split_catalogue("0 1\n1 0\n", order)
    with pytest.raises(ValueError, match=message):
        catalogue.fetch_catalogue(order, source="http://mirror.invalid/as", cache_dir=tmp_path)
    assert urls == [] and list(tmp_path.iterdir()) == []
    monkeypatch.setattr(catalogue, "_data_root", lambda: pytest.fail("bundled data was read"))
    with pytest.raises(ValueError, match=message):
        catalogue.bundled_catalogue(order)


@pytest.mark.parametrize("name", [None, 5, b"s4", "", ".", "..", ".s4", "../groups/s4", "a/b", "a\\b"])
def test_bundled_files_check_the_name_before_any_read(name, monkeypatch):
    """A name that is not a non-empty str free of path separators and
    leading dots is refused by bundled_scheme and bundled_group before
    they look for a bundled file, so none builds a path outside its
    data directory."""
    monkeypatch.setattr(catalogue, "_data_root", lambda: pytest.fail("bundled data was read"))
    message = "^" + re.escape(f"bundled name must be a plain file name, got {name!r}") + "$"
    for door in (catalogue.bundled_scheme, catalogue.bundled_group):
        with pytest.raises(ValueError, match=message):
            door(name)


def test_bundled_files_of_an_unknown_name_are_not_found():
    for door, suffix in ((catalogue.bundled_scheme, ".scm"), (catalogue.bundled_group, ".grp")):
        with pytest.raises(FileNotFoundError, match=re.escape("nosuchname" + suffix)):
            door("nosuchname")


def test_bundled_catalogue_of_an_order_not_bundled_is_not_found():
    assert 99 not in catalogue.bundled_orders()
    with pytest.raises(FileNotFoundError, match="order99.txt"):
        catalogue.bundled_catalogue(99)


def test_fetch_from_mirror_directory(tmp_path):
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    (mirror / "as5.txt").write_text(
        (DATA / "catalogue" / "order05.txt").read_text("utf-8"), "utf-8"
    )
    files = catalogue.fetch_catalogue(5, source=str(mirror), cache_dir=tmp_path / "cache")
    assert len(files) == 3


def test_fetch_offline_with_empty_cache(tmp_path):
    with pytest.raises(sh.NetworkUnavailableError):
        catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)


def test_fetch_missing_mirror_file(tmp_path):
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    with pytest.raises(sh.NetworkUnavailableError):
        catalogue.fetch_catalogue(9, source=str(mirror), cache_dir=tmp_path / "cache")


def test_fetch_cache_hit_and_checksum(tmp_path):
    import hashlib

    data = (DATA / "catalogue" / "order05.txt").read_bytes()
    (tmp_path / "as5.txt").write_bytes(data)
    (tmp_path / "as5.txt.sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")
    files = catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)
    assert len(files) == 3
    # tamper with the cached bytes; the sidecar should catch it
    (tmp_path / "as5.txt").write_bytes(data + b"\n0\n")
    with pytest.raises(sh.ChecksumMismatchError):
        catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)


def test_fetch_reads_the_cache_dir_from_the_environment(tmp_path, monkeypatch):
    import hashlib

    data = (DATA / "catalogue" / "order05.txt").read_bytes()
    (tmp_path / "as5.txt").write_bytes(data)
    (tmp_path / "as5.txt.sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")
    monkeypatch.setenv(catalogue.CACHE_ENV, str(tmp_path))
    assert catalogue.CACHE_ENV == "SCHEMEHALL_CACHE_DIR"
    assert len(catalogue.fetch_catalogue(5, offline=True)) == 3
    monkeypatch.setenv(catalogue.CACHE_ENV, str(tmp_path / "elsewhere"))
    with pytest.raises(sh.NetworkUnavailableError):
        catalogue.fetch_catalogue(5, offline=True)


def test_fetch_defaults_to_the_cache_under_home(tmp_path, monkeypatch):
    """With no explicit directory and the environment variable unset,
    the cache is ~/.cache/schemehall, and an offline fetch reads it."""
    import hashlib

    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv(catalogue.CACHE_ENV, raising=False)
    cache = tmp_path / ".cache" / "schemehall"
    assert catalogue._cache_dir(None) == cache
    with pytest.raises(sh.NetworkUnavailableError):
        catalogue.fetch_catalogue(5, offline=True)
    data = (DATA / "catalogue" / "order05.txt").read_bytes()
    cache.mkdir(parents=True)
    (cache / "as5.txt").write_bytes(data)
    (cache / "as5.txt.sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")
    assert len(catalogue.fetch_catalogue(5, offline=True)) == 3


class _FakeResponse:
    def __init__(self, data):
        self.data = data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.data


@pytest.fixture
def served(monkeypatch):
    """urlopen answers from memory with the bundled order-5 catalogue."""
    import urllib.request

    data = (DATA / "catalogue" / "order05.txt").read_bytes()
    urls = []

    def fake_urlopen(url, timeout=None):
        urls.append(url)
        return _FakeResponse(data)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return data, urls


def test_fetch_caches_data_and_sidecar(tmp_path, served):
    import hashlib

    data, urls = served
    files = catalogue.fetch_catalogue(5, source="http://mirror.invalid/as", cache_dir=tmp_path)
    assert len(files) == 3 and urls == ["http://mirror.invalid/as/as5.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["as5.txt", "as5.txt.sha256"]
    assert (tmp_path / "as5.txt").read_bytes() == data
    assert (tmp_path / "as5.txt.sha256").read_text() == hashlib.sha256(data).hexdigest() + "\n"
    assert len(catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)) == 3


def test_fetch_failure_raises_network_unavailable_and_caches_nothing(tmp_path, monkeypatch):
    import urllib.error
    import urllib.request

    def down(url, timeout=None):
        raise urllib.error.URLError("down")

    monkeypatch.setattr(urllib.request, "urlopen", down)
    with pytest.raises(sh.NetworkUnavailableError, match="http://mirror.invalid/as/as5.txt"):
        catalogue.fetch_catalogue(5, source="http://mirror.invalid/as", cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cached_file_without_sidecar_is_not_trusted(tmp_path):
    (tmp_path / "as5.txt").write_bytes((DATA / "catalogue" / "order05.txt").read_bytes())
    with pytest.raises(sh.ChecksumMismatchError, match="no sha256 sidecar"):
        catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)


def test_fetch_interrupted_between_renames_leaves_no_data(tmp_path, served, monkeypatch):
    """A failure after the sidecar is in place and before the data is:
    no data file and no temporary file remain, so nothing half-written
    is read back, and the next fetch writes both files."""
    import os

    real_replace = os.replace
    renames = []

    def failing_replace(src, dst):
        renames.append(Path(dst).name)
        if len(renames) == 2:
            raise OSError("disk went away")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk went away"):
        catalogue.fetch_catalogue(5, source="http://mirror.invalid/as", cache_dir=tmp_path)
    assert renames == ["as5.txt.sha256", "as5.txt"]
    assert [p.name for p in tmp_path.iterdir()] == ["as5.txt.sha256"]
    with pytest.raises(sh.NetworkUnavailableError):
        catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)

    monkeypatch.setattr(os, "replace", real_replace)
    assert len(catalogue.fetch_catalogue(5, source="http://mirror.invalid/as", cache_dir=tmp_path)) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["as5.txt", "as5.txt.sha256"]
    assert len(catalogue.fetch_catalogue(5, cache_dir=tmp_path, offline=True)) == 3


def test_bundled_corpus_is_fully_parseable():
    for order in catalogue.bundled_orders():
        for sf in catalogue.bundled_catalogue(order):
            scheme = sf.scheme()
            assert len(scheme.rel) == order


# ------------------------------------------------------------------------ cli

def test_cli_solvable_pentagon(capsys):
    code = main(["solvable", str(SCHEMES / "pentagon.scm")])
    assert code == 1
    assert "not solvable" in capsys.readouterr().out


def test_cli_runs_as_a_module():
    """python -m schemehall.cli runs a command, with src on the path and
    the package not installed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "schemehall.cli", *args, str(SCHEMES / "pentagon.scm")],
            env=env, capture_output=True, text=True, check=False,
        )

    valid = run("validate")
    assert (valid.returncode, valid.stdout) == (0, "valid: 5 points, rank 3, valencies [1, 2, 2]\n")
    solvable = run("solvable")
    assert (solvable.returncode, solvable.stdout) == (1, "not solvable\n")


def test_cli_solvable_c6_prints_its_chain(capsys):
    code = main(["solvable", str(SCHEMES / "c6_thin.scm")])
    assert code == 0
    assert capsys.readouterr().out == (
        "solvable: [0] < [0, 3] < [0, 1, 2, 3, 4, 5]\n"
        "step primes: [2, 3]\n"
    )


HM28_HALL_PI2 = (
    "Hall {2}-subset: relations [0, 1, 2, 3]\n"
    "valency: 4\n"
    "index: 7\n"
    "core: relations [0, 1, 2, 3] (valency 4)\n"
    "thin quotient group order: 7\n"
)


def test_cli_hall_wreath28_pi2(capsys):
    code = main(["hall", str(SCHEMES / "hm176_28.scm"), "--pi", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == HM28_HALL_PI2


def test_cli_hall_wreath28_pi7(capsys):
    code = main(["hall", str(SCHEMES / "hm176_28.scm"), "--pi", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert "scheme is not {7}-valenced" in err


def test_cli_validate_and_closed(tmp_path, capsys):
    assert main(["validate", str(SCHEMES / "pentagon.scm")]) == 0
    out = capsys.readouterr().out
    assert "valid: 5 points, rank 3" in out
    bad = tmp_path / "bad.scm"
    bad.write_text(BAD_SCHEME, "utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out == "invalid: identity relation misplaced at (1, 2)\n"
    assert main(["closed", str(SCHEMES / "pentagon.scm")]) == 0
    assert capsys.readouterr().out == (
        "closed subsets: 2\n"
        "  relations [0] valency 1\n"
        "  relations [0, 1, 2] valency 5\n"
    )


def test_cli_rejects_non_prime_pi(capsys):
    code = main(["hall", str(SCHEMES / "hm176_28.scm"), "--pi", "4"])
    assert code == 2
    assert "4 is not prime" in capsys.readouterr().err
    code = main(["hall", str(SCHEMES / "hm176_28.scm"), "--pi", str(2**61 - 1)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 2305843009213693951 is above 2**20, the largest order a scheme may have\n"
    )


def test_cli_conjugate_defaults_pi_to_the_first_subsets_primes(monkeypatch, capsys):
    """Without --pi the primes of the first subset's valency, 4, are used."""
    args = ["conjugate", str(SCHEMES / "hm176_28.scm"), "--t", "0,1,2,3", "--u", "0,1,2,3"]
    assert main(args + ["--pi", "2"]) == 0
    explicit = capsys.readouterr().out
    real = cli.conjugating_element
    seen = []

    def spy(scheme, t, u, pi):
        seen.append(pi)
        return real(scheme, t, u, pi)

    monkeypatch.setattr(cli, "conjugating_element", spy)
    assert main(args) == 0
    assert capsys.readouterr().out == explicit
    assert seen == [frozenset({2})]


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    def broken(scheme, pi):
        raise sh.InternalInconsistencyError("planted")

    monkeypatch.setattr(cli, "find_hall", broken)
    assert main(["hall", str(SCHEMES / "pentagon.scm"), "--pi", "2"]) == 3
    assert capsys.readouterr().err == "internal error: planted\n"


def test_cli_report_on_a_directory_without_schemes(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("3 2\n", "utf-8")
    assert main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no .scm files under {tmp_path}\n"


def test_cli_conjugate_and_extend(capsys):
    code = main([
        "conjugate", str(SCHEMES / "hm176_28.scm"),
        "--t", "0,1,2,3", "--u", "0,1,2,3", "--pi", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        "conjugator: relation 0\n"
        "all conjugators: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n"
    )
    code = main(["extend", str(SCHEMES / "hm176_28.scm"), "--pi", "2", "--t", "0,2"])
    assert code == 0
    assert capsys.readouterr().out == HM28_HALL_PI2


@pytest.mark.parametrize("args, bad", [
    (["extend", "--pi", "2", "--t", "-1"], -1),
    (["conjugate", "--t", "-1", "--u", "0,1,2,3"], -1),
    (["quotient", "--t", "0,-3"], -3),
])
def test_cli_negative_relation_is_input_error(args, bad, capsys):
    """A negative relation id is named with the rank, and exits 2."""
    assert main([args[0], str(SCHEMES / "hm176_28.scm"), *args[1:]]) == 2
    assert capsys.readouterr().err == f"error: element {bad} is out of range for order 10\n"


def test_cli_non_integer_relation_is_input_error(capsys):
    args = ["conjugate", str(SCHEMES / "hm176_28.scm"), "--t", "0,x", "--u", "0"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: expected comma-separated integers, got '0,x'\n"


def test_cli_quotient_emits_parseable_scheme(tmp_path, capsys):
    code = main(["quotient", str(SCHEMES / "hm176_28.scm"), "--t", "0,1,2,3"])
    assert code == 0
    text = capsys.readouterr().out
    sf = formats.parse_scheme(text)
    assert sf.n_points == 7
    assert sf.rank == 7
    out = tmp_path / "q.scm"
    code = main(["quotient", str(SCHEMES / "hm176_28.scm"), "--t", "0,1,2,3", "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text("utf-8") == text


def test_cli_quotient_output_is_pinned(capsys):
    """hm176_28 modulo {0, 1, 2, 3} is the thin scheme of C7, emitted
    byte for byte: point i is the block of the points 4i to 4i + 3."""
    assert main(["quotient", str(SCHEMES / "hm176_28.scm"), "--t", "0,1,2,3"]) == 0
    assert capsys.readouterr().out == (
        "# name: hm176_28//T\n"
        "7 7\n"
        "0 1 2 3 4 5 6\n"
        "6 0 1 2 3 4 5\n"
        "5 6 0 1 2 3 4\n"
        "4 5 6 0 1 2 3\n"
        "3 4 5 6 0 1 2\n"
        "2 3 4 5 6 0 1\n"
        "1 2 3 4 5 6 0\n"
    )


def test_cli_missing_file_is_input_error(capsys):
    assert main(["validate", "no-such-file.scm"]) == 2


def test_cli_hypergroup_grid(capsys):
    assert main(["hypergroup", str(SCHEMES / "pentagon.scm")]) == 0
    out = capsys.readouterr().out
    assert "{0,2}" in out


# --------------------------------------------------------------------- report

def test_report_records_deterministic():
    inputs = [
        (p.stem, p.read_text("utf-8")) for p in sorted(SCHEMES.glob("*.scm"))
    ]
    once = render_jsonl(report_records(inputs, DEFAULT_PI_SETS))
    twice = render_jsonl(report_records(inputs, DEFAULT_PI_SETS, jobs=2))
    assert once == twice
    records = {json.loads(line)["input"]: json.loads(line) for line in once.splitlines()}
    pent = records["pentagon"]
    assert pent["valid"] is True
    assert pent["solvable"] is False
    assert pent["closed_subsets"] == {"count": 2, "valencies": [1, 5]}
    wreath = records["hm176_28"]
    assert wreath["solvable"] is True
    assert wreath["pi"]["{2}"]["hall"]["valency"] == 4
    assert wreath["pi"]["{2}"]["hall"]["index"] == 7
    assert wreath["pi"]["{7}"] == {"hall": None, "pi_valenced": False}
    assert all(json.loads(line)["schema"] == 1 for line in once.splitlines())


def test_catalogue_report_bytes_match_the_frozen_digest():
    """The JSONL report over the seed-0 benchmark inputs, which are the
    bundled catalogue, hashes to the digest bench/facts.json freezes;
    bench/ is only read."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    text = render_jsonl(report_records(inputs.catalogue_inputs(0), jobs=1, timings=False))
    facts = json.loads((ROOT / "bench" / "facts.json").read_text())
    digest = facts["catalogue_report"]["jsonl_sha256_seed0"]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_jobs_must_be_at_least_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["report", str(SCHEMES), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
    with pytest.raises(ValueError):
        report_records([], jobs=0)
    # a jobs that is not an int is refused before any record is made or
    # any pool started, whatever the number of inputs
    text = (SCHEMES / "pentagon.scm").read_text()
    for jobs in (2.5, True):
        for count in (2, 3):
            inputs = [(f"s{i}", text) for i in range(count)]
            with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
                report_records(inputs, jobs=jobs)


def test_report_refuses_a_bad_pi_before_any_work(monkeypatch):
    """A pi that is no set of primes raises ValueError from scheme_record
    and from report_records before any body is parsed or any pool
    started: with a valid body, with an invalid one and for a batch of
    invalid bodies alone, which would otherwise never reach a Hall
    check."""
    parsed = []
    real = report.parse_scheme

    def counted(text, name=""):
        parsed.append(name)
        return real(text, name=name)

    def no_pool(max_workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(report, "parse_scheme", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    good = (SCHEMES / "c6_thin.scm").read_text("utf-8")
    for body in (good, BAD_SCHEME, b"\xff"):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            report.scheme_record("one", body, pi_sets=((4,),))
    for batch in ([("a", good), ("b", BAD_SCHEME)], [("a", BAD_SCHEME), ("b", b"\xff")]):
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="^4 is not prime$"):
                report_records(batch, pi_sets=((2,), (4,)), jobs=jobs)
    assert parsed == []
    record, = report_records([("a", good)], pi_sets=((2,),))
    assert list(record["pi"]) == ["{2}"] and parsed == ["a"]


def test_report_starts_no_more_workers_than_inputs(monkeypatch, capsys):
    """A pool that records its size and runs the tasks in this process,
    so no worker is ever started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # report_records imports the pool inside its jobs > 1 branch, so the
    # patch goes on the module it is imported from
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    inputs = [(p.stem, p.read_text("utf-8")) for p in sorted(SCHEMES.glob("*.scm"))[:3]]
    serial = report_records(inputs)
    assert sizes == []
    assert report_records(inputs, jobs=10**9) == serial
    assert report_records(inputs, jobs=2) == serial
    assert sizes == [3, 2]
    assert main(["report", str(SCHEMES), "--jobs", str(10**9)]) == 0
    assert sizes[-1] == len(list(SCHEMES.glob("*.scm")))
    capsys.readouterr()


def test_cli_report_json(tmp_path, capsys):
    code = main(["report", str(SCHEMES), "--json"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == len(list(SCHEMES.glob("*.scm")))
    for line in lines:
        json.loads(line)


def test_cli_report_pi_and_an_invalid_record(tmp_path, capsys):
    (tmp_path / "bad.scm").write_text(BAD_SCHEME, "utf-8")
    (tmp_path / "c6_thin.scm").write_text((SCHEMES / "c6_thin.scm").read_text("utf-8"), "utf-8")
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "bad: INVALID (IdentityViolationError: identity relation misplaced at (1, 2))\n"
        "c6_thin: n=6 rank=6 solvable=True closed=4\n"
    )
    assert main(["report", str(tmp_path), "--json", "--pi", "3,2"]) == 0
    bad, c6 = map(json.loads, capsys.readouterr().out.splitlines())
    assert bad == {
        "error": "IdentityViolationError: identity relation misplaced at (1, 2)",
        "input": "bad", "schema": 1, "valid": False,
    }
    assert list(c6["pi"]) == ["{2}", "{3}"]
    assert c6["pi"]["{3}"]["hall"] == {"core": [0, 2, 4], "index": 2, "relations": [0, 2, 4], "valency": 3}


def test_cli_report_makes_an_undecodable_file_one_invalid_record(tmp_path, capsys):
    """A file that is not UTF-8 is one invalid record naming the byte,
    and the other files are still reported; the exit code is the one
    any invalid record gives."""
    (tmp_path / "garbage.scm").write_bytes(b"\xff\xfe garbage")
    (tmp_path / "pentagon.scm").write_text((SCHEMES / "pentagon.scm").read_text("utf-8"), "utf-8")
    error = "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert main(["report", str(tmp_path), "--json"]) == 0
    garbage, pentagon = map(json.loads, capsys.readouterr().out.splitlines())
    assert garbage == {"error": error, "input": "garbage", "schema": 1, "valid": False}
    assert pentagon["valid"] and pentagon["n_points"] == 5 and "error" not in pentagon
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"garbage: INVALID ({error})",
        "pentagon: n=5 rank=3 solvable=False closed=2",
    ]
    # bytes that decode give the record their text gives
    text = (SCHEMES / "pentagon.scm").read_text("utf-8")
    assert report.scheme_record("pentagon", text.encode()) == report.scheme_record("pentagon", text)


def test_scheme_record_on_a_malformed_body_and_with_timings():
    rec = report.scheme_record("short", "2 2\n0 1\n")
    assert rec == {
        "schema": 1, "input": "short", "valid": False,
        "error": "NotSquareError: expected 2 matrix rows, found 1",
    }
    timed = report.scheme_record("short", "2 2\n0 1\n", timings=True)
    assert timed.pop("timings")["total_s"] >= 0
    assert timed == rec
    text = (SCHEMES / "c6_thin.scm").read_text("utf-8")
    timed = report.scheme_record("c6_thin", text, timings=True)
    assert list(timed.pop("timings")) == ["total_s"]
    assert timed == report.scheme_record("c6_thin", text)


def test_report_records_an_internal_error_and_goes_on(monkeypatch, capsys):
    real = report.find_hall

    def flaky(scheme, pi):
        if pi == frozenset({3}):
            raise sh.InternalInconsistencyError("planted")
        return real(scheme, pi)

    monkeypatch.setattr(report, "find_hall", flaky)
    text = (SCHEMES / "hm176_28.scm").read_text("utf-8")
    rec = report.scheme_record("hm176_28", text)
    assert rec["pi"]["{3}"] == {"error": "InternalInconsistencyError: planted"}
    assert rec["pi"]["{2}"]["hall"]["valency"] == 4
    assert rec["pi"]["{7}"] == {"hall": None, "pi_valenced": False}
    assert list(rec["pi"]) == ["{2}", "{3}", "{5}", "{7}", "{2,3}"]

    n_files = len(list(SCHEMES.glob("*.scm")))
    assert main(["report", str(SCHEMES), "--json"]) == 3
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == n_files
    assert "internal error: hm176_28 pi={3}: InternalInconsistencyError: planted" in captured.err
    assert main(["report", str(SCHEMES)]) == 3
    assert len(capsys.readouterr().out.splitlines()) == n_files


def _plant_in_the_proof(monkeypatch):
    """Fail validate_scheme's proof of hm176_28's relation hypergroup."""
    real = scheme_module._prove

    def flaky(hg, masks, inv):
        if hg.name == "hm176_28":
            raise sh.InternalInconsistencyError("planted")
        return real(hg, masks, inv)

    monkeypatch.setattr(scheme_module, "_prove", flaky)
    return "relations of a valid scheme must form a hypergroup: planted"


def _plant_in_the_analysis(monkeypatch):
    """Fail the solvability test on the scheme on 28 points."""
    real = report.is_solvable_scheme

    def flaky(scheme):
        if scheme.n_points == 28:
            raise sh.InternalInconsistencyError("planted")
        return real(scheme)

    monkeypatch.setattr(report, "is_solvable_scheme", flaky)
    return "planted"


def test_report_records_a_scheme_level_internal_error_and_goes_on(monkeypatch, capsys):
    """An inconsistency outside the per-pi checks leaves the record's size
    fields and a top-level error; every other record is unchanged.  That
    holds for one in validate_scheme's proof of the relation hypergroup
    too, which runs once the scheme axioms hold: the size fields are then
    read off the parsed file."""
    n_files = len(list(SCHEMES.glob("*.scm")))
    assert main(["report", str(SCHEMES), "--json"]) == 0
    clean = capsys.readouterr().out.splitlines()
    for plant in (_plant_in_the_analysis, _plant_in_the_proof):
        error = f"InternalInconsistencyError: {plant(monkeypatch)}"
        rec = report.scheme_record("hm176_28", (SCHEMES / "hm176_28.scm").read_text("utf-8"))
        assert rec == {
            "schema": 1, "input": "hm176_28", "valid": True, "n_points": 28, "rank": 10,
            "valencies": [1, 1, 1, 1, 4, 4, 4, 4, 4, 4], "error": error,
        }

        assert main(["report", str(SCHEMES), "--json"]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == n_files
        changed = [i for i, (a, b) in enumerate(zip(clean, lines)) if a != b]
        assert [json.loads(lines[i]) for i in changed] == [rec]
        assert captured.err == f"internal error: hm176_28: {error}\n"

        assert main(["report", str(SCHEMES)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert len(out) == n_files
        assert f"hm176_28: n=28 rank=10 ERROR ({error})" in out
        monkeypatch.undo()
