"""Channel-model primitives against closed-form and dense-matrix oracles."""

import numpy as np
import pytest

from passcovert.channel import (GRID_BLOCK_CELLS, ReceiverTerms, _effective_batch, beam_gain,
                                beam_pattern_grid, effective_channel_at, freespace_vector,
                                inwg_phase, inwg_vector, los_coeff)
from passcovert.constants import derive_constants
from passcovert.geometry import BeamVector, PassGeometry, PinchLayout


def test_derive_constants_28ghz(pc28):
    assert pc28.wavelength == pytest.approx(1.0707142857e-2, rel=1e-9)
    assert pc28.eta == pytest.approx(7.259846969563669e-07, rel=1e-12)
    assert pc28.k_g == pytest.approx(1.4 * pc28.k_c, rel=1e-12)


def test_derive_constants_identity_index():
    pc = derive_constants(10e9, 1.0)
    assert pc.k_g == pytest.approx(pc.k_c, rel=1e-15)


def test_derive_constants_eta_scaling():
    # eta ~ lambda^2 ~ 1/f^2, so doubling f quarters eta
    a = derive_constants(10e9, 1.4)
    b = derive_constants(20e9, 1.4)
    assert b.eta == pytest.approx(a.eta / 4.0, rel=1e-12)


def test_derive_constants_rejects_bad_args():
    with pytest.raises(ValueError):
        derive_constants(0.0, 1.4)
    with pytest.raises(ValueError):
        derive_constants(1e9, 0.5)
    # non-finite inputs, and a 5.9e-150 Hz carrier whose eta overflows (it once
    # raised an uncaught OverflowError in the CLI) or a 1e308 Hz one whose
    # wavelength underflows
    nan, inf = float("nan"), float("inf")
    for freq, n_eff in [(nan, 1.4), (inf, 1.4), (1e9, nan), (1e9, inf), (5.9e-150, 1.4),
                        (1e308, 1.4)]:
        with pytest.raises(ValueError):
            derive_constants(freq, n_eff)


_NAN, _INF = float("nan"), float("inf")


def _two_waveguides(height=3.0, length=25.0, wg_y=(-1.5, 1.5), pa_spacing=0.5):
    return PassGeometry(height, length, 2, 3, wg_y, pa_spacing)


@pytest.mark.parametrize("build", [
    lambda: _two_waveguides(height=_NAN),
    lambda: _two_waveguides(height=_INF),
    lambda: _two_waveguides(length=_NAN),
    lambda: _two_waveguides(length=_INF),
    lambda: _two_waveguides(wg_y=(_NAN, 1.5)),
    lambda: _two_waveguides(wg_y=(-1.5, _INF)),
    lambda: _two_waveguides(pa_spacing=_NAN),
    # one antenna per waveguide: inf * 0 made usable_length NaN
    lambda: PassGeometry.single_waveguide(3.0, 25.0, _INF),
    lambda: PinchLayout(PassGeometry.single_waveguide(3.0, 25.0), [_NAN]),
    lambda: PinchLayout(_two_waveguides(), [1.0, _NAN]),
    lambda: BeamVector([1.0], _NAN),
    lambda: BeamVector([1.0], _INF),
    lambda: BeamVector([_NAN, 1.0]),
], ids=["height_nan", "height_inf", "length_nan", "length_inf", "wg_y_nan", "wg_y_inf",
        "spacing_nan", "spacing_inf", "layout_nan", "layout_second_nan", "power_nan",
        "power_inf", "entries_nan"])
def test_geometry_rejects_non_finite(build):
    # all but spacing_nan were once accepted: a NaN fails every ordered
    # comparison, so checks written as "reject if x <= 0" let it through
    with pytest.raises(ValueError):
        build()


def test_los_coeff_height_only(pc28):
    c = los_coeff((5.0, 0.0, 3.0), (5.0, 0.0, 0.0), pc28)
    assert abs(c) == pytest.approx(np.sqrt(pc28.eta) / 3.0, rel=1e-12)


def test_los_coeff_inverse_distance_and_phase(pc28):
    c1 = los_coeff((0, 0, 3), (4, 0, 0), pc28)  # distance 5
    c2 = los_coeff((0, 0, 6), (8, 0, 0), pc28)  # distance 10
    assert abs(c2) == pytest.approx(abs(c1) / 2.0, rel=1e-12)
    dphase = np.angle(c1 * np.conj(c2))
    expected = (pc28.k_c * 5.0) % (2 * np.pi)
    assert dphase % (2 * np.pi) == pytest.approx(expected, abs=1e-9)


def test_los_coeff_distance_seven(pc28):
    c = los_coeff((22.0, 0.0, 3.0), (20.0, 6.0, 0.0), pc28)
    assert abs(c) == pytest.approx(np.sqrt(pc28.eta) / 7.0, rel=1e-12)


def test_los_coeff_coincident_points(pc28):
    with pytest.raises(ValueError):
        los_coeff((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), pc28)


def test_reciprocal_distance_law(pc28, rng):
    for _ in range(50):
        p = rng.uniform(-20, 20, 3)
        r = rng.uniform(-20, 20, 3)
        d = np.linalg.norm(r - p)
        if d < 1e-6:
            continue
        assert abs(los_coeff(p, r, pc28)) * d == pytest.approx(np.sqrt(pc28.eta), rel=1e-12)


def test_inwg_phase_special_points(pc28):
    assert inwg_phase(0.0, pc28) == pytest.approx(1.0 + 0.0j)
    lam_g = 2 * np.pi / pc28.k_g
    assert inwg_phase(lam_g, pc28) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert inwg_phase(lam_g / 2.0, pc28) == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    # pure phase never changes magnitude
    assert abs(los_coeff((0, 0, 3), (4, 0, 0), pc28) * inwg_phase(1.23, pc28)) == \
        pytest.approx(np.sqrt(pc28.eta) / 5.0, rel=1e-12)


def test_inwg_vector(pc28):
    single = inwg_vector([0.7], pc28)
    assert single[0] == pytest.approx(inwg_phase(0.7, pc28))
    lam_g = 2 * np.pi / pc28.k_g
    v = inwg_vector([0.0, lam_g / 2.0, lam_g], pc28)
    np.testing.assert_allclose(v, np.array([1, -1, 1]) / np.sqrt(3), atol=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        inwg_vector([], pc28)


def test_inwg_vector_unit_norm_any_input(pc28, rng):
    for m in (1, 2, 5, 9):
        v = inwg_vector(rng.uniform(0, 25, m), pc28)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_freespace_vector_matches_los(pc28):
    geom = PassGeometry(3.0, 25.0, 2, 3, (-1.5, 1.5), 0.005)
    x = np.array([4.0, 4.005, 4.01])
    r = np.array([6.0, 2.0, 0.0])
    vec = freespace_vector(x, -1.5, r, geom, pc28)
    for m in range(3):
        expect = los_coeff((x[m], -1.5, 3.0), r, pc28)
        assert vec[m] == pytest.approx(expect, rel=1e-12)
    # minimum possible distance is the height
    assert np.all(np.abs(vec) <= np.sqrt(pc28.eta) / 3.0 + 1e-15)


def test_freespace_vector_beneath_antenna(pc28):
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    vec = freespace_vector([10.0], 0.0, (10.0, 0.0, 0.0), geom, pc28)
    assert abs(vec[0]) == pytest.approx(np.sqrt(pc28.eta) / 3.0, rel=1e-12)


def _dense_oracle(layout, r, pc):
    """Explicit NM-dimensional product h^H(X) G(X): the stacked free-space vector
    against the block-diagonal in-waveguide matrix."""
    geom = layout.geom
    n, m = geom.n_wg, geom.m_pa
    h = np.concatenate([
        freespace_vector(layout.pa_x()[i], geom.wg_y[i], r, geom, pc)
        for i in range(n)])
    g = np.zeros((n * m, n), dtype=complex)
    for i in range(n):
        g[i * m:(i + 1) * m, i] = inwg_vector(layout.pa_x()[i], pc)
    return np.conj(h) @ g


def test_effective_channel_swsp_scalar(pc28):
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    layout = PinchLayout(geom, np.array([8.0]))
    r = (11.0, 4.0, 0.0)
    eff = effective_channel_at(layout, r, pc28)[0]
    expect = np.conj(los_coeff((8.0, 0.0, 3.0), r, pc28)) * inwg_phase(8.0, pc28)
    assert eff[0] == pytest.approx(expect, rel=1e-12)
    d = np.linalg.norm(np.array([11.0, 4.0, 0.0]) - np.array([8.0, 0.0, 3.0]))
    assert abs(eff[0]) == pytest.approx(np.sqrt(pc28.eta) / d, rel=1e-12)


def test_effective_channel_dense_oracle(pc28, rng):
    for n, m in [(2, 2), (1, 3), (3, 1), (4, 4)]:
        wg_y = tuple(np.linspace(-3, 3, n)) if n > 1 else (0.0,)
        geom = PassGeometry(3.0, 25.0, n, m, wg_y, 0.0054)
        layout = PinchLayout(geom, rng.uniform(0, geom.usable_length, n))
        r = np.array([rng.uniform(0, 25), rng.uniform(-8, 8), 0.0])
        eff = effective_channel_at(layout, r, pc28)[0]
        oracle = _dense_oracle(layout, r, pc28)
        np.testing.assert_allclose(eff, oracle, rtol=1e-10, atol=1e-18)


def test_effective_channel_triangle_bound(pc28, rng):
    geom = PassGeometry(3.0, 25.0, 2, 3, (-1.5, 1.5), 0.0054)
    layout = PinchLayout(geom, rng.uniform(0, geom.usable_length, 2))
    r = np.array([5.0, 1.0, 0.0])
    eff = effective_channel_at(layout, r, pc28)[0]
    for i in range(2):
        dists = np.linalg.norm(
            np.column_stack([layout.pa_x()[i], np.full(3, geom.wg_y[i]), np.full(3, 3.0)])
            - r, axis=1)
        bound = np.sum(np.sqrt(pc28.eta) / dists) / np.sqrt(3)
        assert abs(eff[i]) <= bound + 1e-15


def _bob_gain(layout, beam, r_b, pc):
    return beam_gain(layout, beam.weights, [r_b], pc)[0]


def test_bob_gain_plugin_value(pc28):
    # antenna directly above Bob, P = 1 W
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    layout = PinchLayout(geom, np.array([12.0]))
    beam = BeamVector(np.ones(1, dtype=complex), 1.0)
    gain = _bob_gain(layout, beam, (12.0, 0.0, 0.0), pc28)
    assert gain == pytest.approx(pc28.eta / 9.0, rel=1e-12)


def test_bob_gain_power_scaling_and_zero(pc28):
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    layout = PinchLayout(geom, np.array([12.0]))
    r_b = (14.0, 2.0, 0.0)
    base = _bob_gain(layout, BeamVector(np.ones(1, dtype=complex), 1.0), r_b, pc28)
    scaled = _bob_gain(layout, BeamVector(np.ones(1, dtype=complex), 3.5), r_b, pc28)
    zero = _bob_gain(layout, BeamVector(np.ones(1, dtype=complex), 0.0), r_b, pc28)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)
    assert zero == 0.0


def test_bob_gain_global_phase_invariance(pc28, rng):
    geom = PassGeometry(3.0, 25.0, 3, 2, (-3.0, 0.0, 3.0), 0.0054)
    layout = PinchLayout(geom, rng.uniform(0, geom.usable_length, 3))
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w /= np.linalg.norm(w)
    r_b = (9.0, 2.0, 0.0)
    base = _bob_gain(layout, BeamVector(w, 2.0), r_b, pc28)
    for phi in (0.3, 1.7, -2.2):
        rotated = _bob_gain(layout, BeamVector(w * np.exp(1j * phi), 2.0), r_b, pc28)
        assert rotated == pytest.approx(base, rel=1e-12)


def test_beam_pattern_peak_beneath_antenna(pc28):
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    layout = PinchLayout(geom, np.array([7.25]))
    beam = BeamVector(np.ones(1, dtype=complex), 0.5)
    xs = np.arange(0.0, 25.01, 0.25)
    ys = np.arange(-10.0, 10.01, 0.25)
    grid = beam_pattern_grid(layout, beam, xs, ys, pc28)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert xs[i] == pytest.approx(7.25, abs=0.25)
    assert ys[j] == pytest.approx(0.0, abs=0.25)
    assert grid.max() == pytest.approx(1.0)


def test_beam_pattern_rejects_empty_grid(pc28):
    geom = PassGeometry.single_waveguide(3.0, 25.0)
    layout = PinchLayout(geom, np.array([7.25]))
    with pytest.raises(ValueError):
        beam_pattern_grid(layout, BeamVector(np.ones(1, dtype=complex)), [], [0.0], pc28)


def _one_call_pattern(layout, beam, xs, ys, pc):
    """The pattern's defining formula: one kernel call over every cell, then normalized."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cells = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    gains = beam_gain(layout, beam.weights, cells, pc).reshape(xs.size, ys.size)
    return gains / gains.max()


def test_beam_pattern_blocks_bit_identical_to_one_call(pc28, rng):
    geom = PassGeometry(3.0, 25.0, 4, 3, (-4.5, -1.5, 1.5, 4.5), 0.0054)
    layout = PinchLayout(geom, rng.uniform(0.0, geom.usable_length, 4))
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    beam = BeamVector(w / np.linalg.norm(w), 0.5)
    ys = np.linspace(-12.0, 12.0, 97)
    xs = np.linspace(0.0, 25.0, 3 * GRID_BLOCK_CELLS // ys.size + 2)
    cells = xs.size * ys.size
    assert cells > 3 * GRID_BLOCK_CELLS and cells % GRID_BLOCK_CELLS
    got = beam_pattern_grid(layout, beam, xs, ys, pc28)
    want = _one_call_pattern(layout, beam, xs, ys, pc28)
    assert got.shape == want.shape == (xs.size, ys.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_effective_channel_at_batches_match_single(pc28, rng):
    geom = PassGeometry(3.0, 25.0, 2, 2, (-1.5, 1.5), 0.0054)
    layout = PinchLayout(geom, np.array([3.0, 17.0]))
    rcv = np.column_stack([rng.uniform(0, 25, 5), rng.uniform(-8, 8, 5), np.zeros(5)])
    batch = effective_channel_at(layout, rcv, pc28)
    for k in range(5):
        np.testing.assert_allclose(batch[k], effective_channel_at(layout, rcv[k], pc28)[0],
                                   rtol=1e-12)


def _broadcast_effective_batch(pa_x, wg_y, height, receivers, pc):
    """The kernel's defining formula, one broadcast expression per step."""
    px = pa_x[..., None, :, :]
    dx = receivers[:, 0][:, None, None] - px
    dy = receivers[:, 1][:, None, None] - wg_y[None, :, None]
    dz = receivers[:, 2][:, None, None] - height
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    m = pa_x.shape[-1]
    phase = pc.k_c * dist - pc.k_g * px
    return np.sqrt(pc.eta / m) * np.sum(np.exp(1j * phase) / dist, axis=-1)


@pytest.mark.parametrize("layouts, n, m, k", [
    ((30,), 4, 3, 6),  # twin-swarm position half
    ((), 4, 3, 10_000),  # beam-pattern grid
    ((), 1, 1, 500),  # single waveguide, single antenna
    ((30,), 4, 5, 6),  # more antennas than the slice-add path covers
], ids=["swarm", "grid", "single_antenna", "m5"])
def test_effective_batch_bit_identical_to_broadcast_formula(pc28, rng, layouts, n, m, k):
    pa_x = rng.uniform(0.0, 25.0, layouts + (n, m))
    wg_y = np.linspace(-1.5 * (n - 1), 1.5 * (n - 1), n)
    rcv = np.column_stack([rng.uniform(0, 25, k), rng.uniform(-8, 8, k), np.zeros(k)])
    want = _broadcast_effective_batch(pa_x, wg_y, 3.0, rcv, pc28)
    terms = ReceiverTerms(rcv, wg_y, 3.0)
    for got in (_effective_batch(pa_x, wg_y, 3.0, rcv, pc28),
                _effective_batch(pa_x, wg_y, 3.0, rcv, pc28, terms)):
        assert got.shape == want.shape == layouts + (k, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _swarm_layouts(rng, j, n, m, length=25.0, spacing=0.0054):
    """Antenna x of j swarm layouts whose normalized first-antenna coordinates
    include the clip bounds 0 and 1 exactly, as in a solve."""
    first = rng.random((j, n))
    first.flat[::3] = 0.0
    first.flat[1::3] = 1.0
    usable = length - (m - 1) * spacing
    return first[:, :, None] * usable + np.arange(m) * spacing


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 6, 10])
def test_effective_batch_kept_terms_bit_identical_to_broadcast_formula(pc28, rng, k, m):
    # one ReceiverTerms serves every call of a solve, so its work arrays
    # are reused from call to call and across layout counts
    n = 4
    wg_y = np.linspace(-4.5, 4.5, n)
    rcv = np.column_stack([rng.uniform(0, 25, k), rng.uniform(-8, 8, k), np.zeros(k)])
    terms = ReceiverTerms(rcv, wg_y, 3.0)
    for j in (1, 7, 30, 1, 7, 30):
        pa_x = _swarm_layouts(rng, j, n, m)
        got = _effective_batch(pa_x, wg_y, 3.0, rcv, pc28, terms)
        want = _broadcast_effective_batch(pa_x, wg_y, 3.0, rcv, pc28)
        assert got.shape == want.shape == (j, k, n)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_complex_by_real_division_is_reciprocal_multiply(rng):
    # the kernel multiplies by 1/dist where the formula divides by dist
    z = np.exp(1j * rng.uniform(0.0, 2e4, 100_000))
    d = rng.uniform(3.0, 40.0, z.size)
    inv = np.reciprocal(d)
    product = z.copy()
    product *= inv
    assert np.array_equal((z / d).view(np.uint64), product.view(np.uint64))
