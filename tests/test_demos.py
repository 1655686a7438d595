"""Keep the narrative demo scripts runnable, their stdout pinned byte for byte.

Each demo's stdout is hashed and compared with a recorded sha256, as
test_cli_golden.py does for the CLI, so a refactor that changes any
printed byte of a demo fails here.  README's library quick start runs
too, and prints what its comments say it prints.
"""

import hashlib
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"

GOLDEN = {
    "01_enclosing_zeta2.py": "d2b0b9254ddf5d4bae4715520bb29538d2d947fdc12cdcfc6be5528e2983d5c4",
    "02_euler_products_and_gaps.py": "c847777427ebc4b2ee49df0838a2f958623766a7a645885c6a0401397bdf56d9",
    "03_continued_fractions.py": "fe95ffa77093837339ee3511dc81b48cae93b5a45e1014b66ec6a634543be561",
    "04_lcm_growth.py": "237ebd78e25ca82fb8e8a88ccdef5d38a2b2f3226f93b9e3e5a250216eca3e5e",
    "05_staircases_and_towers.py": "3c8acfeae01943c46b226a8cf34a864c44c4316db4bcd125b73656cc75f6c3e5",
}


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("0*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN[script.name]


def test_readme_quick_start(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the values that print lines state in a trailing comment
    stated = [
        line.split("  # ", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "  # " in line
    ]
    assert stated == ["1225/768", "[(1000, 7919), (10000, 104729)]"]
    assert all(value in printed for value in stated)
