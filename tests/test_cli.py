import csv
import json
import warnings
from pathlib import Path

import pytest

from timefreq.cli import main


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


@pytest.mark.parametrize("sub,flag", [("frame-check", "--num-sets"), ("exceptional", "--runs"),
                                      ("tree-bound", "--trials"), ("mm-scan", "--trials")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_counts_must_be_positive(tmp_path, capsys, sub, flag, value):
    with pytest.raises(SystemExit) as exc:
        run([sub, "--J", "8", flag, value, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert len(error_lines(capsys)) == 1
    assert not (tmp_path / "x.csv").exists()


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
