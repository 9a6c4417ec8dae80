import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asad.data import Montage
from asad.geometry import project_electrodes
from asad.interpolate import gradient_operator, interpolator

from conftest import make_random_montage


def _grid_points(layout, grid_n=32):
    umin, umax, vmin, vmax = layout.extent
    us = umin + (np.arange(grid_n) + 0.5) * (umax - umin) / grid_n
    vs = vmin + (np.arange(grid_n) + 0.5) * (vmax - vmin) / grid_n
    return np.meshgrid(us, vs, indexing="xy")


def test_constant_reproduction():
    layout = project_electrodes(make_random_montage(24, 0))
    ct = interpolator(layout)
    grid = ct.grid(np.full(24, 3.25), 32)
    inside = ct.grid_cache(32)["inside"].reshape(32, 32)
    assert np.max(np.abs(grid[inside] - 3.25)) < 1e-9
    assert np.all(grid[~inside] == 0.0)


def test_affine_reproduction():
    for seed in range(4):
        layout = project_electrodes(make_random_montage(16 + 12 * seed, seed))
        ct = interpolator(layout)
        a, b, c = 1.7, -0.9, 0.4
        vals = a * layout.points[:, 0] + b * layout.points[:, 1] + c
        grid = ct.grid(vals, 32)
        inside = ct.grid_cache(32)["inside"].reshape(32, 32)
        uu, vv = _grid_points(layout)
        expect = a * uu + b * vv + c
        assert np.max(np.abs((grid - expect)[inside])) < 1e-6


def test_gradient_estimator_exact_on_affine():
    layout = project_electrodes(make_random_montage(20, 3))
    op = gradient_operator(layout)
    vals = 2.0 * layout.points[:, 0] - 0.5 * layout.points[:, 1] + 1.0
    grads = np.einsum("idn,n->id", op, vals)
    assert np.max(np.abs(grads - np.array([2.0, -0.5]))) < 1e-9


def test_electrode_value_interpolation(rng):
    layout = project_electrodes(make_random_montage(30, 4))
    ct = interpolator(layout)
    vals = rng.normal(size=30)
    out = ct.evaluate(vals, layout.points)
    assert np.max(np.abs(out - vals)) < 1e-9


def test_linearity(rng):
    layout = project_electrodes(make_random_montage(22, 5))
    ct = interpolator(layout)
    v1, v2 = rng.normal(size=22), rng.normal(size=22)
    a, b = 0.6, -2.2
    combined = ct.grid(a * v1 + b * v2, 32)
    parts = a * ct.grid(v1, 32) + b * ct.grid(v2, 32)
    assert np.max(np.abs(combined - parts)) < 1e-9


def test_clamped_mode_bounded(rng):
    for seed in range(6):
        mont = make_random_montage(16 + 6 * seed, 100 + seed)
        layout = project_electrodes(mont)
        ct = interpolator(layout, clamp_gradients=True)
        inside = ct.grid_cache(32)["inside"].reshape(32, 32)
        for _ in range(4):
            vals = rng.normal(size=len(mont)) ** 3  # heavy tails provoke overshoot
            grid = ct.grid(vals, 32)
            assert grid[inside].max() <= vals.max() + 1e-9
            assert grid[inside].min() >= vals.min() - 1e-9


def test_unclamped_can_overshoot(rng):
    # sanity that the clamp actually changes behavior
    layout = project_electrodes(make_random_montage(24, 7))
    ct = interpolator(layout)
    worst = 0.0
    for _ in range(8):
        vals = rng.normal(size=24) ** 3
        grid = ct.grid(vals, 32)
        inside = ct.grid_cache(32)["inside"].reshape(32, 32)
        worst = max(worst, grid[inside].max() - vals.max())
    assert worst > 0.0


def test_mirror_symmetry(rng):
    mont = make_random_montage(28, 9)
    vals = rng.normal(size=28)
    layout = project_electrodes(mont)
    grid = interpolator(layout).grid(vals, 32)

    mirrored = Montage(names=list(mont.names), positions=mont.positions.copy())
    mirrored.positions[:, 0] *= -1.0
    layout_m = project_electrodes(mirrored.validate())
    grid_m = interpolator(layout_m).grid(vals, 32)

    assert np.max(np.abs(grid_m - grid[:, ::-1])) < 1e-6


def test_non_finite_values_rejected():
    layout = project_electrodes(make_random_montage(16, 11))
    ct = interpolator(layout)
    vals = np.zeros(16)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ct.grid(vals, 32)


def _bezier_grid(ct, values, grid_n, fill):
    """Per-map Bezier evaluation at the cell centers, `fill` outside the hull."""
    uu, vv = _grid_points(ct.layout, grid_n)
    query = np.column_stack([uu.ravel(), vv.ravel()])
    return ct.evaluate(values, query, fill=fill).reshape(grid_n, grid_n)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(8, 40),
    seed=st.integers(0, 10_000),
    batch=st.sampled_from([(), (3,), (2, 3)]),
    fill=st.sampled_from([0.0, -1.5]),
)
def test_operator_grid_matches_bezier_evaluation(n, seed, batch, fill):
    ct = interpolator(project_electrodes(make_random_montage(n, seed)))
    values = np.random.default_rng(seed).normal(size=batch + (n,))
    grid = ct.grid(values, 32, fill=fill)
    assert grid.shape == batch + (32, 32)
    for idx in np.ndindex(batch):
        ref = _bezier_grid(ct, values[idx], 32, fill)
        assert np.max(np.abs(grid[idx] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_clamped_batch_equals_row_by_row(rng):
    ct = interpolator(project_electrodes(make_random_montage(20, 12)), clamp_gradients=True)
    values = rng.normal(size=(2, 3, 20)) ** 3
    grid = ct.grid(values, 32)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(grid[idx], ct.grid(values[idx], 32))


@pytest.mark.parametrize("clamp", [False, True])
def test_fill_lands_only_outside_hull(rng, clamp):
    ct = interpolator(project_electrodes(make_random_montage(24, 13)), clamp_gradients=clamp)
    inside = ct.grid_cache(32)["inside"].reshape(32, 32)
    values = rng.normal(size=(4, 24))
    plain = ct.grid(values, 32)
    filled = ct.grid(values, 32, fill=7.5)
    assert np.all(filled[:, ~inside] == 7.5)
    assert np.array_equal(filled[:, inside], plain[:, inside])


@pytest.mark.parametrize("clamp", [False, True])
def test_non_finite_value_in_batch_rejected(clamp):
    ct = interpolator(project_electrodes(make_random_montage(16, 11)), clamp_gradients=clamp)
    vals = np.zeros((3, 16))
    vals[2, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ct.grid(vals, 32)
