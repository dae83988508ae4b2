"""Chen's relation and geometricity as properties over random drivers.

Stored rough paths are multiplicative by construction, so their Chen
defect is float roundoff at the scale of level 2; polyline and
trapezoidal (Stratonovich) Brownian lifts are also grid-geometric.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from roughpaths.rough_paths import (brownian_lift, chen_defect,  # noqa: E402
                                    geometricity_defect,
                                    lift_piecewise_linear)

# derandomized so that the tier-1 suite is reproducible run to run
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 3)
points = st.integers(3, 300)


def roundoff_bound(rp) -> float:
    return 1e-12 * max(1.0, float(np.max(np.abs(rp.level2), initial=0.0)))


@PROPERTY
@given(seed=seeds, m=dims, n=points,
       scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_polyline_lift_is_multiplicative_and_geometric(seed, m, n, scale):
    rng = np.random.default_rng(seed)
    pts = scale * np.cumsum(rng.normal(size=(n, m)), axis=0)
    times = np.cumsum(rng.uniform(0.01, 1.0, size=n))
    x = lift_piecewise_linear(pts, times)
    bound = roundoff_bound(x)
    assert chen_defect(x) <= bound
    assert geometricity_defect(x) <= bound


@PROPERTY
@given(seed=seeds, m=dims, n=points,
       T=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
       convention=st.sampled_from(["ito", "stratonovich"]))
def test_brownian_lift_is_multiplicative(seed, m, n, T, convention):
    x = brownian_lift(seed, n - 1, T, m, convention)
    bound = roundoff_bound(x)
    assert chen_defect(x) <= bound
    if convention == "stratonovich":
        assert geometricity_defect(x) <= bound
