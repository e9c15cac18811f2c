import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["report"].anchor == 1
    assert isinstance(namespace["cutoff"], float) and namespace["cutoff"] >= 0.0
    assert np.isfinite(namespace["trace"].d_x).all()
    assert namespace["grid"].abscissa.shape == (20, 20)
