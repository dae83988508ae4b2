"""The grid-pair scan behind the five sup-over-pairs measures.

pvar_norm, geometricity_defect, area_pvar_bound,
PartialRoughPath.cross_bound and pvar_distance share one blocked scan
(rough_paths._pair_sup).  These tests pin each measure to a scan of one
start point at a time (tests/oracles.py), check that the block size does
not matter, and cover the geometricity envelope beyond the exact scan's
limit.
"""

import numpy as np
import pytest

from roughpaths import rough_paths
from roughpaths.partial_rough_paths import PartialRoughPath, pvar_distance
from roughpaths.rough_paths import (AreaDrift, Control, HolderControl,
                                    RoughPath, area_pvar_bound,
                                    brownian_lift, geometricity_defect,
                                    pvar_norm)

from oracles import (area_pvar_bound_rows, cross_bound_rows,
                     geometricity_defect_rows, pvar_distance_rows)


def random_grid(rng, n):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])


def random_drift(rng, n, m):
    beta = rng.normal(size=(n, m, m))
    return AreaDrift(random_grid(rng, n), beta + np.swapaxes(beta, 1, 2))


def random_triple(rng, n, d, m, times=None):
    times = random_grid(rng, n) if times is None else times
    return PartialRoughPath(times, rng.normal(size=(n, m)),
                            rng.normal(size=(n - 1, m, m)),
                            rng.normal(size=(n, d)),
                            rng.normal(size=(n - 1, d, m)),
                            float(rng.choice([2.0, 2.3])))


@pytest.mark.parametrize("m", [1, 2])
def test_area_pvar_bound_equals_row_oracle(m):
    rng = np.random.default_rng(70 + m)
    for n in (2, 3, 17, 40):
        drift = random_drift(rng, n, m)
        for p in (2.0, 2.3):
            assert (area_pvar_bound(drift, HolderControl(), p)
                    == area_pvar_bound_rows(drift, HolderControl(), p))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cross_measures_equal_row_oracles(d, m):
    # random triples on non-uniform grids: equal, not close
    rng = np.random.default_rng(80 + 10 * d + m)
    for n in (2, 3, 17, 40):
        a = random_triple(rng, n, d, m)
        b = random_triple(rng, n, d, m, times=a.times)
        assert a.cross_bound() == cross_bound_rows(a)
        assert pvar_distance(a, b) == pvar_distance_rows(a, b)


def _five_measures(n, seed):
    rng = np.random.default_rng(seed)
    x = brownian_lift(seed, n - 1, 1.0, 2, "ito")
    a = random_triple(rng, n, 2, 2, times=x.times)
    b = random_triple(rng, n, 2, 2, times=x.times)
    return [pvar_norm(x, 2.3), geometricity_defect(x),
            area_pvar_bound(rough_paths.decompose(x)[1], x.control, 2.3),
            a.cross_bound(), pvar_distance(a, b)]


@pytest.mark.parametrize("n", [3, 17, 33])
def test_block_size_does_not_matter(monkeypatch, n):
    ref = _five_measures(n, n)
    # 1: one start point per block; 5 and 40: one or several, depending
    # on how many later points each has; n * n: the whole grid in one pass
    for pairs in (1, 5, 40, n * n):
        monkeypatch.setattr(rough_paths, "_PAIR_BLOCK", pairs)
        assert _five_measures(n, n) == ref


@pytest.mark.parametrize("m", [1, 2])
def test_geometricity_envelope_brackets_exact_scan(monkeypatch, m):
    # beyond _EXACT_SCAN_LIMIT points the defect is the entrywise-range
    # envelope: the exact value for m = 1, at most m times it otherwise
    for seed in range(4):
        x = brownian_lift(seed, 60, 1.0, m, "ito")
        exact = geometricity_defect(x)
        assert exact == geometricity_defect_rows(x.level1, x.level2)
        monkeypatch.setattr(rough_paths, "_EXACT_SCAN_LIMIT", 10)
        envelope = geometricity_defect(x)
        monkeypatch.undo()
        if m == 1:
            assert envelope == exact
        else:
            assert exact <= envelope <= m * exact


def test_nan_control_raises():
    x = brownian_lift(3, 40, 1.0, 1)
    nan_control = Control(lambda s, t: np.where(np.asarray(t) > 0.5, np.nan,
                                                np.asarray(t) - np.asarray(s)))
    with pytest.raises(ValueError, match="NaN"):
        pvar_norm(RoughPath(x.times, x.level1, x.level2, nan_control), 2.0)
    with pytest.raises(ValueError, match="NaN"):
        area_pvar_bound(rough_paths.decompose(x)[1], nan_control, 2.0)
