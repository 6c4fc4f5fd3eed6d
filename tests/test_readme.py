"""The README's examples run as written."""

import re
from pathlib import Path

from ringlat.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README,
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block in the README"
    return blocks[0]


def test_library_example_runs():
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert len(namespace["sweep"].rows) == 121


def test_config_example_runs(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(_block("json"))
    assert main(["sweep", "--config", str(config_path),
                 "--omega-points", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").exists()
