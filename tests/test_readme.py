"""README's command-line examples run as written.

Every ``chorepick ...`` line of README's command block runs in-process, in
order, in one scratch directory, so that files written by ``> file`` are
there for the lines that read them. Each must exit 0.
"""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from chorepick.cli import EXIT_OK, main

README = Path(__file__).parents[1] / "README.md"


def _command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("chorepick ")]


def _run(line: str) -> int:
    words = shlex.split(line, comments=True)[1:]
    target = None
    if ">" in words:
        at = words.index(">")
        words, target = words[:at], words[at + 1]
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = main(words)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    if target is not None:
        Path(target).write_text(out.getvalue(), encoding="utf-8")
    return code


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert len(lines) >= 10 and any(">" in line for line in lines)
    for line in lines:
        assert _run(line) == EXIT_OK, (line, capsys.readouterr().err)
