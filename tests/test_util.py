import numpy as np

from acgcl.util import rng_for


def test_rng_for_deterministic_and_role_separated():
    a = rng_for(7, 1, 3).random(4)
    b = rng_for(7, 1, 3).random(4)
    c = rng_for(7, 2, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
