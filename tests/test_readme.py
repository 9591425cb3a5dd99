"""README's Quick tour runs as printed.

The tour's code block runs in a fresh interpreter with this checkout's
src first on the path, and each printed line must be the value its
comment names: the frame bounds, the equivalence report's exit code and
the obstruction's tail.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import cstarframes

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    section = README.read_text().split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_tour_prints_the_values_its_comments_name():
    code = _tour()
    comments = re.findall(r"^print\(.*\)\s+# ([^:]+):", code, re.M)
    assert comments == ["(1.0, 2.0)", "0", "1.0"]
    src = str(Path(cstarframes.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == comments
