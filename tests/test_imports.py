import os
import subprocess
import sys
from pathlib import Path

import mpxpi


def test_library_imports_no_scipy():
    # Importing scipy.sparse alone used to take most of a CLI call's start-up.
    src = str(Path(mpxpi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mpxpi, mpxpi.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "[]"
