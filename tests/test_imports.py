import os
import subprocess
import sys
from pathlib import Path

import panokit

_PROBE = """
import sys

import numpy as np

import panokit

loaded = {"scipy.optimize", "scipy.special"} & set(sys.modules)
assert not loaded, f"import panokit loaded {sorted(loaded)}"

match = panokit.hungarian(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
assert match.pairs == ((0, 1), (1, 0)), match

h, w = 64, 64
tokens = np.full((sum(panokit.token_counts(h, w)), 1), 0.5, np.float32)
attn = panokit.MultiScaleAttn(tokens, 1, h, w)
mask = panokit.attn_to_mask(attn, panokit.FuseHead(np.zeros(3), 0.0))
assert mask.shape == (h // 8, w // 8) and (mask == 0.5).all(), mask
print("ok")
"""


def test_import_loads_scipy_only_where_it_is_called():
    # a fresh interpreter: this one has long since loaded scipy
    src = str(Path(panokit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
