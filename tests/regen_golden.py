"""Rewrite the golden reports in tests/golden from the TestGolden table.

    PYTHONPATH=src python tests/regen_golden.py [ROW ...]

runs each row of ``test_cli._GOLDEN`` (all rows, or the named ones) from the
repo root at ``QUC_THREADS=1`` and copies its report files over
``tests/golden/<row>/``.  pytest does not collect this file.  A change that
moves the files says in CHANGES.md which fields moved and why; a TestGolden
failure lists them.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quclab.cli import main  # noqa: E402
from test_cli import _GOLDEN, GOLDEN_DIR, REPO_ROOT  # noqa: E402


def regenerate(rows) -> None:
    os.environ["QUC_THREADS"] = "1"
    os.chdir(REPO_ROOT)
    unknown = set(rows) - {row[0] for row in _GOLDEN}
    if unknown:
        raise SystemExit(f"no golden row {sorted(unknown)}")
    for row, argv, files in _GOLDEN:
        if rows and row not in rows:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = main([*argv, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{row} exited with {code}; nothing rewritten")
            target = GOLDEN_DIR / row
            target.mkdir(parents=True, exist_ok=True)
            for name in files:
                shutil.copyfile(out / name, target / name)
        print(f"rewrote {target}: {', '.join(files)}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
