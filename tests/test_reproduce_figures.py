"""scripts/reproduce_figures.py writes what the command line writes."""

import importlib.util
import pathlib

from auvgeom import cli

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_files_equal_the_cli_files(capsys, tmp_path):
    script_out, cli_out = tmp_path / "script", tmp_path / "cli"
    argv = ["--out", str(script_out), "--figures", "3", "6", "--trials", "5", "--workers", "2"]
    assert load_script().main(argv) == 0
    cli_out.mkdir()
    for name in ("3", "6"):
        code = cli.main([
            "--out", str(cli_out), "--seed", "0", "--workers", "1", "--set", "trials=5",
            "--plot", "--figure", name, "simulate",
        ])
        assert code == 0
    written = {p.name: p.read_bytes() for p in script_out.iterdir()}
    assert sorted(written) == ["fig3.csv", "fig3.svg", "fig6.csv", "fig6.svg"]
    for name in ("fig3.csv", "fig6.csv"):
        assert written[name].startswith(b"# auvgeom ")
    assert written == {p.name: p.read_bytes() for p in cli_out.iterdir()}
    assert "fig6: " in capsys.readouterr().out
