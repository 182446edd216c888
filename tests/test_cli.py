import argparse
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefreq import cli
from timefreq.cli import MAX_LOG2_N, build_parser, main


def run(argv):
    return main(argv)


def read(path: Path) -> bytes:
    return path.read_bytes()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("frame", ["frame-check", "--J", "9", "--L", "16", "--num-sets", "2", "--seed", "3"]),
        ("mm", ["mm-scan", "--J", "8", "--N", "2,4", "--trials", "2", "--seed", "1"]),
        ("exc", ["exceptional", "--J", "8", "--runs", "1", "--seed", "2"]),
        ("rtt", ["rtt-sim", "--log2-n-max", "10", "--seed", "4"]),
        ("blow", ["blowup", "--J-list", "8,9"]),
        ("tails", ["tails", "--J", "8", "--n-max", "500", "--seed", "5"]),
        ("bound", ["tree-bound", "--J", "9", "--trials", "1", "--seed", "6"]),
    ],
)
def test_byte_identical_reruns(tmp_path, name, argv):
    out1 = tmp_path / f"{name}_1.csv"
    out2 = tmp_path / f"{name}_2.csv"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    header = out1.read_text().splitlines()[0]
    assert header and not header[0].isdigit()


def test_tree_select_round_trip(tmp_path):
    tiles = tmp_path / "tiles.txt"
    tiles.write_text("0 1 0 2\n0 2 0 2\n-1 2 1 1\n")
    out1 = tmp_path / "sel1.csv"
    out2 = tmp_path / "sel2.csv"
    argv = ["tree-select", "--J", "8", "--L", "8", "--tiles", str(tiles), "--seed", "7"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert out1.with_suffix(".tiles.txt").exists()


def test_tree_select_counts_duplicate_tile_lines_once(tmp_path, capsys):
    tiles = tmp_path / "tiles.txt"
    tiles.write_text("0 3 0 1\n0 3 0 1\n")
    out = tmp_path / "sel.csv"
    assert run(["tree-select", "--J", "8", "--L", "8", "--tiles", str(tiles), "--out", str(out)]) == 0
    assert "1 levels over 1 tiles" in capsys.readouterr().out
    assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == ["1"]  # tile_count
    assert len(out.with_suffix(".tiles.txt").read_text().splitlines()) == 1


def test_tree_select_empty_input(tmp_path):
    tiles = tmp_path / "empty.txt"
    tiles.write_text("")
    out = tmp_path / "sel.csv"
    code = run(["tree-select", "--J", "8", "--L", "8", "--tiles", str(tiles), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only


def test_invalid_exponents_diagnosed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["exceptional", "--J", "8", "--p", "1.2", "--q", "1.4",
                "--runs", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "exponent-sum" in err and "1/p + 1/q" in err


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": 8, "N": "2,4", "trials": 2, "seed": 9}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["--config", str(cfg), "mm-scan", "--out", str(out1)]) == 0
    # flags win over the config file
    assert run(["--config", str(cfg), "mm-scan", "--trials", "3", "--out", str(out2)]) == 0
    t1 = out1.read_text().splitlines()
    t2 = out2.read_text().splitlines()
    assert t1[1].split(",")[4] == "2"
    assert t2[1].split(",")[4] == "3"


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("TIMEFREQ_OUTDIR", str(tmp_path))
    assert run(["blowup", "--J-list", "8"]) == 0
    assert (tmp_path / "blowup.csv").exists()


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]


def test_missing_input_files_diagnosed(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert run(["tree-select", "--J", "8", "--L", "8", "--tiles", missing,
                "--out", str(tmp_path / "sel.csv")]) == 2
    assert len(error_lines(capsys)) == 1
    assert run(["--config", missing, "blowup", "--J-list", "8"]) == 2
    assert len(error_lines(capsys)) == 1


@pytest.mark.parametrize("n_list", ["2", "2,2"])
def test_mm_scan_single_n_reports_nan_slope(tmp_path, n_list):
    out = tmp_path / "mm.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RankWarning from a one-point fit
        assert run(["mm-scan", "--J", "8", "--N", n_list, "--trials", "1", "--out", str(out)]) == 0
    with out.open() as fh:
        slopes = {row["fitted_slope"] for row in csv.DictReader(fh)}
    assert slopes == {"nan"}


# each subcommand's arguments besides the count: rtt-sim has no --J, and tree-select
# reads a tile file, so an empty tile collection cannot end its run before the count is used
_COUNT_ARGV = {"rtt-sim": [], "tree-select": ["--J", "8", "--tiles", "TILES"]}
_COUNT_CASES = [(sub, flag, value)
                for sub, flag in [("frame-check", "--num-sets"), ("exceptional", "--runs"),
                                  ("tree-bound", "--trials"), ("mm-scan", "--trials"), ("tails", "--n-max"),
                                  ("rtt-sim", "--log2-n-max"), ("tree-select", "--family-size")]
                for value in ["0", "-3"]]
_COUNT_CASES += [("tails", "--n-max", str((1 << MAX_LOG2_N) + 1)),
                 ("rtt-sim", "--log2-n-max", str(MAX_LOG2_N + 1))]


@pytest.mark.parametrize("sub,flag,value", _COUNT_CASES, ids=[f"{v}-{s}-{f}" for s, f, v in _COUNT_CASES])
def test_counts_must_be_positive(tmp_path, capsys, sub, flag, value):
    tiles = tmp_path / "tiles.txt"
    tiles.write_text("0 1 0 2\n0 2 0 2\n-1 2 1 1\n")
    argv = [str(tiles) if a == "TILES" else a for a in _COUNT_ARGV.get(sub, ["--J", "8"])]
    with pytest.raises(SystemExit) as exc:
        run([sub, *argv, flag, value, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert len(error_lines(capsys)) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sub,flag,cap,bench", [("rtt-sim", "--log2-n-max", MAX_LOG2_N, 20),
                                                ("tails", "--n-max", 1 << MAX_LOG2_N, 500000)])
def test_orbit_length_caps(capsys, sub, flag, cap, bench):
    ap = build_parser()
    assert getattr(ap.parse_args([sub, flag, str(cap)]), flag[2:].replace("-", "_")) == cap
    assert getattr(ap.parse_args([sub, flag, str(bench)]), flag[2:].replace("-", "_")) == bench
    with pytest.raises(SystemExit):
        ap.parse_args([sub, flag, str(cap + 1)])
    assert f"must be at most {cap}, got {cap + 1}" in error_lines(capsys)[0]
    with pytest.raises(SystemExit):
        run([sub, "--help"])
    assert f"(at most {cap})" in " ".join(capsys.readouterr().out.split())


def test_config_values_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": "8", "N": "2,4", "trials": "2", "q": 1.5}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["--config", str(cfg), "mm-scan", "--out", str(out1)]) == 0
    assert run(["mm-scan", "--J", "8", "--N", "2,4", "--trials", "2", "--out", str(out2)]) == 0
    assert read(out1) == read(out2)


@pytest.mark.parametrize("config,message", [
    ({"runs": 0}, "must be at least 1"),  # the count bound applies to config values
    ({"Jx": 9}, "unknown config key 'Jx'"),
    ({"J": "nine"}, "invalid value"),
    ({"J": True}, "invalid value"),
    ([9], "JSON object"),
    ({"lam": float("nan")}, "must be a finite number"),  # float options take finite values only
])
def test_bad_config_rejected(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), "exceptional", "--J", "8", "--out", str(out)])
    assert exc.value.code == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and message in errors[0]
    assert not out.exists()


def test_grid_exponent_cap_diagnosed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["exceptional", "--J", "60", "--runs", "1", "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and "between 1 and 20" in errors[0]
    assert not out.exists()


# time [100, 101) past the box length 8; frequency [100, 101) past the halfwidth 32
@pytest.mark.parametrize("line", ["0 100 0 2", "0 1 0 100"])
def test_tree_select_tile_outside_box_diagnosed(tmp_path, capsys, line):
    tiles = tmp_path / "tiles.txt"
    tiles.write_text("0 1 0 2\n" + line + "\n")
    out = tmp_path / "sel.csv"
    assert run(["tree-select", "--J", "9", "--L", "8", "--tiles", str(tiles), "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and f"'{line}'" in errors[0] and "[0, 8) x [-32, 32)" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("line,why", [
    ("0 1 0", "not enough values to unpack"),
    ("0 1 0 2 5", "too many values to unpack"),
    ("0 1 x 2", "invalid literal for int()"),
    ("0 1 1 2", "tile must have area one"),
])
def test_tree_select_malformed_tile_line_diagnosed(tmp_path, capsys, line, why):
    tiles = tmp_path / "tiles.txt"
    tiles.write_text("# k_time m_time k_freq m_freq\n0 1 0 2\n" + line + "\n")
    out = tmp_path / "sel.csv"
    assert run(["tree-select", "--J", "9", "--L", "8", "--tiles", str(tiles), "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and errors[0].startswith("error: tile file line 3: " + why)
    assert "four integers k_time m_time k_freq m_freq" in errors[0] and f"'{line}'" in errors[0]
    assert not out.exists()


# small-argument runs of every subcommand, used to read the header each one writes
_HEADER_ARGV = {
    "frame-check": ["--J", "9", "--L", "16", "--num-sets", "1"],
    "tree-select": ["--J", "8", "--L", "8"],
    "tree-bound": ["--J", "9", "--trials", "1", "--l-list", "0"],
    "mm-scan": ["--J", "8", "--N", "2,4", "--trials", "1"],
    "exceptional": ["--J", "8", "--runs", "1"],
    "rtt-sim": ["--log2-n-max", "6"],
    "blowup": ["--J-list", "8"],
    "tails": ["--J", "8", "--n-max", "100"],
}


def test_header_table_covers_every_subcommand():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_HEADER_ARGV)


@pytest.mark.parametrize("sub", sorted(_HEADER_ARGV))
def test_csv_header_matches_help_epilog(tmp_path, capsys, sub):
    with pytest.raises(SystemExit) as exc:
        run([sub, "--help"])
    assert exc.value.code == 0
    listed = " ".join(capsys.readouterr().out.split("CSV columns:", 1)[1].split())
    out = tmp_path / "x.csv"
    assert run([sub, *_HEADER_ARGV[sub], "--out", str(out)]) == 0
    with out.open() as fh:
        header = next(csv.reader(fh))
    assert ", ".join(header) == listed


@pytest.mark.parametrize("sub", sorted(_HEADER_ARGV))
def test_one_subparser_per_call(tmp_path, monkeypatch, sub):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run([sub, *_HEADER_ARGV[sub], "--out", str(tmp_path / "x.csv")]) == 0
    assert built == [sub]


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["--help"],
    ["tails", "--help"], ["tails", "--he"],
    ["--bogus", "tails"], ["tails", "--bogus"], ["blowup", "--J-list", "x"],
    ["--config", "CFG"], ["--config", "tails", "rtt-sim"], ["--config", "BAD", "exceptional"],
    ["tails", "--J", "8", "--n-max", "50"],
    ["--config", "blowup", "tails", "--J", "8", "--n-max", "50"],  # a config file named like a subcommand
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_messages_and_outputs_as_with_the_full_parser(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TIMEFREQ_OUTDIR", raising=False)
    (tmp_path / "cfg.json").write_text(json.dumps({"J": 8}))
    (tmp_path / "bad.json").write_text(json.dumps({"Jx": 9}))
    (tmp_path / "blowup").write_text(json.dumps({"x": 0.2}))
    argv = [{"CFG": "cfg.json", "BAD": "bad.json"}.get(a, a) for a in argv]
    reduced = outcome(argv, capsys)
    full_parser = cli._parser

    def full_only(parser_class, names):
        if parser_class is cli._Quiet:
            raise cli._Quiet.Refused
        return full_parser(parser_class, names)

    monkeypatch.setattr(cli, "_parser", full_only)
    assert reduced == outcome(argv, capsys)


@pytest.mark.parametrize("argv,message", [
    (["tails", "--J", "5", "--L", "2"], "(J >= 6), got J = 5"),
    (["tree-select", "--J", "4", "--L", "2"], "(J >= 6), got J = 4"),
    (["tree-bound", "--L", "4"], "needs --L >= 8, got 4"),
    (["exceptional", "--J", "6", "--L", "8", "--runs", "1"], "raise --J or lower --L"),
    (["frame-check", "--J", "6", "--L", "1"], "needs box length L >= 2, got L = 1"),
    (["frame-check", "--J", "6", "--L", "0.5"], "needs box length L >= 2, got L = 0.5"),
    (["blowup", "--J-list", "3"], "--J-list entry >= 6, got 3"),
    (["blowup", "--J-list", "4"], "--J-list entry >= 6, got 4"),
    (["blowup", "--J-list", "8,5"], "--J-list entry >= 6, got 5"),
    (["tree-bound", "--J", "7", "--L", "32", "--trials", "1"], "needs 2^(J-1)/L >= 4, got 2; raise --J or lower --L"),
    (["tails", "--J", "8", "--L", "4", "--n-max", "9"], "no window t = 2, 4, ... with t + 1 < L/2 at L = 4; raise --L"),
])
def test_too_small_grid_diagnosed(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and message in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--p", "0"], "exponent p must be positive, got 0"),
    (["--q", "0"], "exponent q must be positive, got 0"),
    (["--p", "-1.5"], "exponent p must be positive, got -1.5"),
])
def test_blowup_exponents_must_be_positive(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert run(["blowup", "--J-list", "8", *argv, "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and message in errors[0]
    assert not out.exists()


# (|F|^(1/p) |G|^(1/q))^2 at the narrowest spikes: 2^-1206 at --p 0.01 (a division by zero),
# 2^-1049 at --p 0.0115 (a subnormal, so the proxy overflowed to inf)
@pytest.mark.parametrize("argv,message", [
    (["--p", "0.01"], "exponent p = 0.01 is too small for J = 12"),
    (["--q", "0.011"], "exponent q = 0.011 is too small for J = 12"),
    (["--p", "0.02", "--J-list", "18"], "exponent p = 0.02 is too small for J = 18"),
    (["--p", "0.0115"], "exponent p = 0.0115 is too small for J = 12"),
])
def test_blowup_underflowing_exponents_refused(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert run(["blowup", *argv, "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and message in errors[0] and f"raise {argv[0]}" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("sub,func", [("tails", "cmd_tails"), ("exceptional", "cmd_exceptional")])
def test_out_of_memory_diagnosed(tmp_path, capsys, monkeypatch, sub, func):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, func, exhausted)
    out = tmp_path / "x.csv"
    assert run([sub, "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and f"error: {sub} ran out of memory" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["rtt-sim", "--r", "nan"], "--r"),
    (["rtt-sim", "--alpha", "nan"], "--alpha"),
    (["mm-scan", "--eps", "nan"], "--eps"),
    (["blowup", "--q", "inf"], "--q"),
    (["tails", "--x", "nan"], "--x"),
    (["tree-bound", "--L=-inf"], "--L"),  # "-inf" alone reads as an option
])
def test_non_finite_floats_diagnosed(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and f"argument {flag}: must be a finite number" in errors[0]
    assert not out.exists()


def expression_trig_poly(c):
    """rtt-sim's observable as one expression over fresh temporaries, the oracle of the in-place form."""
    def fn(u):
        t = 2 * np.pi * np.asarray(u, dtype=float)
        c1, s1 = np.cos(t), np.sin(t)
        c2, s2 = 2 * c1 * c1 - 1, 2 * s1 * c1
        c3, s3 = c1 * (4 * c1 * c1 - 3), s1 * (3 - 4 * s1 * s1)
        return c[0] + c[1] * c1 + c[2] * s1 + c[3] * c2 + c[4] * s2 + c[5] * c3 + c[6] * s3
    return fn


@pytest.mark.parametrize("n", [None, 1, (1 << 14) - 1, 1 << 14])
def test_in_place_trig_poly_bit_identical(n):
    """The in-place observable equals the expression bit for bit, on a 0-d input (n None) too."""
    rng = np.random.default_rng(n)
    u = np.asarray(rng.random()) if n is None else rng.random(n)
    for _ in range(5):
        c = rng.standard_normal(7) * np.exp(-np.arange(7))
        got = cli._trig_poly(c)(u)
        assert np.shape(got) == u.shape
        assert np.array_equal(got, expression_trig_poly(c)(u))


_LIST_CASES = [
    (["frame-check", "--k-list", "0,,1"], "--k-list", "invalid int value in '0,,1'"),
    (["tree-bound", "--l-list", "0,one"], "--l-list", "invalid int value in '0,one'"),
    (["mm-scan", "--N", "2,4.5"], "--N", "invalid int value in '2,4.5'"),
    (["blowup", "--J-list", "8,x"], "--J-list", "invalid int value in '8,x'"),
    (["tails", "--sharpness", ",,"], "--sharpness", "invalid float value: ''"),
]


@pytest.mark.parametrize("argv,flag,message", _LIST_CASES, ids=[flag for _, flag, _ in _LIST_CASES])
def test_list_option_entries_diagnosed(tmp_path, capsys, argv, flag, message):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and f"error: argument {flag}: {message}" in errors[0]
    assert not out.exists()


_RANGE_CASES = [
    (["mm-scan", "--N", "-3"], "--N", "must be at least 1, got -3"),
    (["mm-scan", "--N", "2,0"], "--N", "must be at least 1, got 0"),
    (["tree-bound", "--l-list", "0,-1"], "--l-list", "must be at least 0, got -1"),
]


@pytest.mark.parametrize("argv,flag,message", _RANGE_CASES, ids=[" ".join(argv) for argv, _, _ in _RANGE_CASES])
def test_list_entries_out_of_range_name_the_option(tmp_path, capsys, argv, flag, message):
    """An integer list entry below its bound is refused by the parser, which names the option."""
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and f"error: argument {flag}: {message}" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("eps,n_list", [("1e300", "2"), ("-1100", "2,4"), ("204", "2,32"), ("203.2", "2,32")])
def test_mm_scan_eps_outside_normaliser_range_refused(tmp_path, capsys, eps, n_list):
    """An eps whose normaliser N^(1/q - 1/r + eps) overflows (a traceback) or underflows to zero (every
    max_ratio 0) at the largest N is one error line naming eps, before any trial; so is one that leaves
    the normaliser normal but puts a trial's ratio out of the normal doubles (204: max_ratio 0 at N = 32,
    203.2: the subnormal 2.1e-308)."""
    out = tmp_path / "x.csv"
    assert run(["mm-scan", "--J", "8", f"--eps={eps}", "--N", n_list, "--trials", "1", "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and f"error: eps = {float(eps):g} puts N^(1/q - 1/r + eps) outside" in errors[0]
    assert not out.exists()


def test_list_option_config_values_checked(tmp_path, capsys):
    """A --config list value goes through the option's type: non-finite sharpness levels are refused."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sharpness": "0.02,nan"}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), "tails", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and "config key 'sharpness'" in errors[0] and "must be a finite number" in errors[0]


def test_overflowing_sharpness_refused(tmp_path, capsys):
    """A level whose spike product overflows is one error line, with no overflow warning (the suite
    turns RuntimeWarnings into errors)."""
    out = tmp_path / "x.csv"
    assert run(["tails", "--J", "8", "--n-max", "50", "--sharpness", "0.02,1e-300", "--out", str(out)]) == 2
    errors = error_lines(capsys)
    assert len(errors) == 1 and "sharpness level 1e-300 is too sharp" in errors[0]
    assert not out.exists()


def direct_trig_poly(c):
    """rtt-sim's observable with one cos and one sin call per harmonic, the oracle of the angle forms."""
    def fn(u):
        u = np.asarray(u, dtype=float)
        out = np.full(u.shape, c[0])
        for d in range(1, 4):
            out = out + c[2 * d - 1] * np.cos(2 * np.pi * d * u)
            out = out + c[2 * d] * np.sin(2 * np.pi * d * u)
        return out
    return fn


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64))
def test_angle_forms_match_direct_harmonics(us):
    """Each harmonic of rtt-sim's observable, picked by a unit coefficient vector, within 1e-14 absolute."""
    u = np.array(us)
    for k in range(7):
        c = np.eye(7)[k]
        assert np.max(np.abs(cli._trig_poly(c)(u) - direct_trig_poly(c)(u))) <= 1e-14


def _small_list(values, max_size=3):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size).map(
        lambda xs: ",".join(str(x) for x in xs))


def _valid_or_not(valid, invalid):
    """Half the draws from the usual values, half from zero, negative or odd ones."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


_NON_FINITE = ["nan", "inf", "-inf"]
_J = _valid_or_not(["7", "8", "9"], ["-1", "0", "1", "4", "6"])
_L = _valid_or_not(["4", "8", "16"], ["-2", "0", "0.5", "1", "2", "3"] + _NON_FINITE)
_ONE = _valid_or_not(["1"], ["-1", "0"])
_EXPONENT = _valid_or_not(["1.5", "1.6", "3"], ["-1", "0", "0.5", "1", "2"] + _NON_FINITE)
# blowup's normalisation underflows at small exponents: at its J-list sizes 0.001 does, 0.01 not
_BLOWUP_EXPONENT = _valid_or_not(["1.5", "1.6", "3"], ["-1", "0", "0.001", "0.01", "0.5", "1", "2"] + _NON_FINITE)
# option strategies of each subcommand, beside --out; tree-select's TILES is the fuzz tile file
_FUZZ_OPTIONS = {
    "frame-check": {"--J": _J, "--L": _L, "--num-sets": _ONE, "--k-list": _small_list([*range(-3, 4), "", "x", "1.5"])},
    "tree-select": {"--J": _J, "--L": _L, "--family-size": _ONE, "--tiles": st.just("TILES")},
    "tree-bound": {"--J": _J, "--L": _L, "--trials": _ONE, "--l-list": _small_list([*range(-1, 3), "", "x", "0.5"]),
                   "--r": _EXPONENT, "--t": _EXPONENT},
    "mm-scan": {"--J": _J, "--L": _L, "--trials": _ONE, "--N": _small_list([-2, 0, 1, 2, 4, "", "x", "2.5"]),
                "--q": _EXPONENT, "--r": _EXPONENT,
                "--eps": st.sampled_from(["-0.01", "0", "0.01", "1e300", "-1100", "204"] + _NON_FINITE)},
    "exceptional": {"--J": _J, "--L": _L, "--runs": _ONE, "--p": _EXPONENT, "--q": _EXPONENT,
                    "--lam": _valid_or_not(["0.25", "0.5", "1"], ["-0.5", "0", "2"] + _NON_FINITE)},
    "rtt-sim": {"--log2-n-max": st.sampled_from(["-1", "0", "1", "6"]), "--r": _EXPONENT},
    "blowup": {"--p": _BLOWUP_EXPONENT, "--q": _BLOWUP_EXPONENT, "--J-list": _small_list([-1, 0, 2, 4, 5, 6, 8, 9, "", "x", "8.0"], 2)},
    "tails": {"--J": _J, "--L": _L, "--n-max": st.sampled_from(["-1", "0", "1", "50"]),
              "--sharpness": _small_list([-0.1, 0, 0.02, 0.5, "", "x", "1e-300", *_NON_FINITE])},
}
# the options that set a run's size are always given, so no draw runs at a default size
_FUZZ_SIZES = {"--num-sets", "--family-size", "--trials", "--runs", "--log2-n-max", "--n-max", "--J-list"}


@st.composite
def fuzz_argv(draw):
    """A subcommand, its size options and a drawn subset of its other options, all small values."""
    sub = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [sub]
    for flag, values in _FUZZ_OPTIONS[sub].items():
        if flag in _FUZZ_SIZES or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(fuzz_argv())
def test_fuzz_small_argv(argv):
    """Any small-valued argv ends with exit code 0, 1 or 2, no traceback and at most one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        tiles = Path(tmp) / "tiles.txt"
        tiles.write_text("0 1 0 2\n-1 2 1 1\n-1 3 1 -2\n")
        argv = [str(tiles) if a == "TILES" else a for a in argv] + ["--out", str(Path(tmp) / "x.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    assert not any(line.startswith("Traceback") for line in lines), argv
    assert sum("error:" in line for line in lines) <= 1, argv
