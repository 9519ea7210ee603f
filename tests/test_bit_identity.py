"""Pinned SHA-256 digests of the sampling kernel's raw output bytes.

The digests were computed on the straightforward, allocate-per-ufunc
implementation of ``normal_lanes`` and the GBM batch path.  Any rewrite of
those kernels (in-place arithmetic, tiling, a different batch size) must
leave every bit of the output unchanged.  1000 seeds is deliberately not a
multiple of the GBM tile, so a partial last tile is covered.
"""

import hashlib

import numpy as np
import pytest

from mlmckit._bits import counter_seeds, normal_lanes
from mlmckit.models import GBMModel

SEEDS = counter_seeds(2024, 0, 1000)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def test_normal_lanes_bytes_are_pinned():
    z = normal_lanes(SEEDS, 256)
    assert z.shape == (1000, 256)
    assert _digest(z) == "48a28554acdb65f009b36e890d74adc75371790516b8fb7c1cf57fd928036a9a"


GBM_DIGESTS = {
    1: "cfc7b25b3b7b86f6aced419cd6b050c14ffad7f502f8e543453d8e02f4d2842f",
    2: "4833891d95edac724592e2505485371ca3d5d2e5fda9683d59ca33713da72739",
    3: "9e17a0e5d9c171216ef28bb7541c22b9234f1e46abc9421ae3bc64fdb1a39946",
    4: "2a011d14926663622e381526f3faf5c729a372b57f733b21c511c0d209ad9b0d",
}


@pytest.mark.parametrize("level", sorted(GBM_DIGESTS))
def test_gbm_evaluate_many_bytes_are_pinned(level):
    values = GBMModel().evaluate_many(level, SEEDS)
    assert values.shape == (1000,)
    assert _digest(values) == GBM_DIGESTS[level]
