import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "scripts" / "equivalence.py")
equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equivalence)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_equivalence_help(capsys, flag):
    assert equivalence.main([flag]) == 0
    assert capsys.readouterr().out == equivalence.__doc__ + "\n"


@pytest.mark.parametrize("argv,option", [(["--bogus"], "--bogus"), (["--bogus", "HEAD"], "--bogus"), (["HEAD", "-x"], "-x")])
def test_equivalence_refuses_options_before_any_checkout(monkeypatch, capsys, argv, option):
    def no_git(*args, **kwargs):
        raise AssertionError(f"ran {args[0]}")

    monkeypatch.setattr(subprocess, "run", no_git)
    assert equivalence.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown option {option};")
