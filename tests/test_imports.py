import os
import subprocess
import sys
from pathlib import Path

import mpxpi


def _loaded_after_fresh_import(package: str, modules: str = "mpxpi, mpxpi.cli") -> str:
    """Modules of ``package`` loaded by ``import <modules>`` in a new interpreter."""
    src = str(Path(mpxpi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {modules}, sys; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.strip()


def test_library_imports_no_scipy():
    # Importing scipy.sparse alone used to take most of a CLI call's start-up.
    assert _loaded_after_fresh_import("scipy") == "[]"


def test_library_imports_no_multiprocessing():
    # Only the CSV writer forks workers, and it imports multiprocessing itself.
    assert _loaded_after_fresh_import("multiprocessing") == "[]"


def test_csv_writer_imports_neither_the_cli_nor_multiprocessing():
    # The writer stands alone: the CLI imports it, not the other way round.
    assert "'mpxpi.cli'" not in _loaded_after_fresh_import("mpxpi", "mpxpi.csvio")
    assert _loaded_after_fresh_import("argparse", "mpxpi.csvio") == "[]"
    assert _loaded_after_fresh_import("multiprocessing", "mpxpi.csvio") == "[]"
