"""The README's command-line pipeline and library snippet run as written."""

import re
import shlex
from pathlib import Path

from pauliflow import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the heading `after`."""
    section = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_pipeline_runs_as_written(tmp_path, monkeypatch, capsys):
    block = _block("## Command-line pipeline", "sh")
    circuit = re.search(r"<<'EOF'\n(.*?)^EOF$", block, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    Path("adder.qc").write_text(circuit)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("pauliflow ")
    ]
    assert len(commands) == 7
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        if argv[1] == "verify":
            assert capsys.readouterr().out.rstrip().endswith("PASS"), argv


def test_library_usage_runs(capsys):
    exec(_block("## Library usage", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].endswith("-> 1")
