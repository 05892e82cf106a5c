"""A fixed job that gauges how fast this machine runs at the moment.

    python3 bench/refjob.py

``run.py`` runs it in a fresh interpreter before and after every timed
sample. It uses nothing from ``kerrcat``, so no change to the program can
move its time; only the machine can. Like a CLI sample, it pays for an
interpreter start and the numpy import, then runs a Python loop over small
numpy calls (the sweeps' per-point overhead) and a few dense complex
products and an SVD on one BLAS thread (the large workloads' kernels).
"""

import numpy as np

rng = np.random.default_rng(12345)
small = rng.standard_normal(64)
total = 0.0
for i in range(12000):
    total += float(small @ small) + i * 0.5
dense = rng.standard_normal((240, 240)) + 1j * rng.standard_normal((240, 240))
for _ in range(3):
    dense = dense @ dense.conj().T / 240.0
total += float(np.linalg.svd(dense, compute_uv=False).sum())
if not np.isfinite(total):
    raise SystemExit("reference job: non-finite result")
