import os
import subprocess
import sys
from pathlib import Path

import mpxpi


def _loaded_after_fresh_import(package: str) -> str:
    """Modules of ``package`` loaded by ``import mpxpi, mpxpi.cli`` in a new interpreter."""
    src = str(Path(mpxpi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mpxpi, mpxpi.cli, sys; "
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
