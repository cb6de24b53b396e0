"""Integral-image and coordinate-set pooling against brute-force oracles."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msar.gradcheck import TOLERANCE, check_gradients
from msar.pooling import (CoordinateSetSpec, build_sat, coordinate_set, excite, gate,
                          project_pool, rect_sum, region_avg_pool, regional_pool)
from msar.tensor import BNState, Tape, Tensor, add, backward, linear, mul, sum_all
from oracles import broadcast_weights, coordinate_avg_pool, expand_chain, relu, sigmoid


def prefix_table(x):
    """Triple-loop inclusive prefix sums, the oracle for build_sat."""
    d, h, w = x.shape
    out = np.zeros_like(x)
    for c in range(d):
        for i in range(h):
            for j in range(w):
                out[c, i, j] = x[c, :i + 1, :j + 1].sum()
    return out


def test_sat_matches_prefix_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.standard_normal((2, int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        assert np.allclose(build_sat(x), prefix_table(x), atol=1e-12)


def test_float32_tensor_sat_sums_in_float64():
    # a float32 Tensor's table is summed in float64, as a raw array's is: in
    # float32 the 12x12 sum of values near 1000 was off by 0.015
    rng = np.random.default_rng(23)
    x = (1000.0 + rng.uniform(-0.1, 0.1, (1, 12, 12))).astype(np.float32)
    want = x.astype(np.float64).sum()
    for table in (build_sat(Tensor(x)), build_sat(x)):
        assert table.dtype == np.float64
        assert rect_sum(table, 0, 0, 11, 0, 11) == want


def test_rect_sum_exhaustive_small_lattice():
    # every inclusive rectangle of a 6x5 map, against direct slicing
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 6, 5))
    sat = build_sat(x)
    for h1 in range(6):
        for h2 in range(h1, 6):
            for w1 in range(5):
                for w2 in range(w1, 5):
                    for d in range(3):
                        want = x[d, h1:h2 + 1, w1:w2 + 1].sum()
                        got = rect_sum(sat, d, h1, h2, w1, w2)
                        assert got == pytest.approx(want, abs=1e-9)


def test_rect_sum_rejects_bad_bounds():
    sat = build_sat(np.ones((1, 4, 4)))
    with pytest.raises(ValueError):
        rect_sum(sat, 0, 2, 1, 0, 3)  # inverted rows
    with pytest.raises(ValueError):
        rect_sum(sat, 0, 0, 3, 3, 2)  # inverted cols
    with pytest.raises(ValueError):
        rect_sum(sat, 0, 0, 4, 0, 3)  # beyond the lattice
    with pytest.raises(ValueError):
        rect_sum(sat, 0, -1, 2, 0, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        CoordinateSetSpec("diagonal", 2, 8, 8)
    with pytest.raises(ValueError):
        CoordinateSetSpec("regional", 0, 8, 8)
    with pytest.raises(ValueError):
        CoordinateSetSpec("regional", 9, 8, 8)  # more cells than rows
    ok = CoordinateSetSpec("regional", 2, 8, 8)
    assert ok.vector_count == 4
    assert CoordinateSetSpec("sliding", 2, 8, 8).vector_count == 64


def test_regional_single_set_covers_everything():
    spec = CoordinateSetSpec("regional", 1, 8, 8)
    bounds, count = coordinate_set(spec, 3, 5)
    assert bounds == (0, 7, 0, 7)
    assert count == 64


def test_regional_quadrants_on_8x8():
    spec = CoordinateSetSpec("regional", 2, 8, 8)
    assert coordinate_set(spec, 0, 0) == ((0, 3, 0, 3), 16)
    assert coordinate_set(spec, 3, 3) == ((0, 3, 0, 3), 16)
    assert coordinate_set(spec, 4, 0) == ((0, 3, 4, 7), 16)
    assert coordinate_set(spec, 0, 4) == ((4, 7, 0, 3), 16)
    assert coordinate_set(spec, 7, 7) == ((4, 7, 4, 7), 16)


def test_regional_partition_covers_lattice_without_overlap():
    rng = np.random.default_rng(23)
    for _ in range(6):
        h = int(rng.integers(3, 12))
        w = int(rng.integers(3, 12))
        k = int(rng.integers(1, min(h, w) + 1))
        spec = CoordinateSetSpec("regional", k, w, h)
        rects = {}
        for p in range(h):
            for q in range(w):
                (h1, h2, w1, w2), c = coordinate_set(spec, q, p)
                assert h1 <= p <= h2 and w1 <= q <= w2
                assert (h2 - h1 + 1) * (w2 - w1 + 1) == c
                rects[(h1, h2, w1, w2)] = c
        # exactly k*k distinct cells that tile the lattice
        assert len(rects) == k * k
        assert sum(rects.values()) == w * h


def test_sliding_window_halfwidth_and_clipping():
    # 32x32 at split 2: half-width floor(sqrt(1024)/2) = 16
    spec = CoordinateSetSpec("sliding", 2, 32, 32)
    assert spec.threshold == pytest.approx(16.0)
    assert spec.radius == 16
    assert CoordinateSetSpec("sliding", 2, 7, 5).radius == 2      # floor(sqrt(35)/2)
    assert spec.vector_count == 32 * 32
    assert coordinate_set(spec, 0, 0) == ((0, 16, 0, 16), 289)
    assert coordinate_set(spec, 16, 16) == ((0, 31, 0, 31), 1024)
    assert coordinate_set(spec, 31, 31) == ((15, 31, 15, 31), 289)
    with pytest.raises(ValueError):
        coordinate_set(spec, 32, 0)


def test_sliding_giant_window_equals_global_average():
    # half-width >= both sides makes every window the whole map
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 5, 5))
    spec = CoordinateSetSpec("sliding", 1, 5, 5)
    out = region_avg_pool(x, spec)
    want = x.mean(axis=(1, 2))
    assert np.allclose(out, np.broadcast_to(want, (25, 2)), atol=1e-12)


def test_regional_means_tiny_example():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    spec = CoordinateSetSpec("regional", 2, 2, 2)
    out = region_avg_pool(x, spec)
    assert np.allclose(out[:, 0], [1.0, 2.0, 3.0, 4.0])


def test_sliding_means_match_naive_windows():
    rng = np.random.default_rng(25)
    for _ in range(4):
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        k = int(rng.integers(1, 5))
        spec = CoordinateSetSpec("sliding", k, w, h)
        x = rng.standard_normal((3, h, w))
        out = region_avg_pool(x, spec)
        r = int(spec.threshold)
        for p in range(h):
            for q in range(w):
                h1, h2 = max(0, p - r), min(h - 1, p + r)
                w1, w2 = max(0, q - r), min(w - 1, q + r)
                want = x[:, h1:h2 + 1, w1:w2 + 1].mean(axis=(1, 2))
                assert np.allclose(out[p * w + q], want, atol=1e-9)


def test_batched_pool_matches_per_sample():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((3, 4, 6, 6))
    for spec in (CoordinateSetSpec("regional", 3, 6, 6),
                 CoordinateSetSpec("sliding", 2, 6, 6)):
        out = coordinate_avg_pool(Tensor(x), spec).data.reshape(3, spec.vector_count, 4)
        for b in range(3):
            single = region_avg_pool(x[b], spec)
            assert np.allclose(out[b], single, atol=1e-12)


def slice_pool(x, og, spec):
    """Per-cell mean stack and slice-add backward: the regional pool's oracle."""
    cells = sorted({coordinate_set(spec, q, p)[0]
                    for p in range(spec.height) for q in range(spec.width)})
    y = np.stack([x[:, :, h1:h2 + 1, w1:w2 + 1].mean(axis=(2, 3))
                  for h1, h2, w1, w2 in cells], axis=1)
    grad = np.zeros_like(x)
    for idx, (h1, h2, w1, w2) in enumerate(cells):
        count = (h2 - h1 + 1) * (w2 - w1 + 1)
        grad[:, :, h1:h2 + 1, w1:w2 + 1] += (og[:, idx, :] / count)[:, :, None, None]
    return y, grad


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("height,width,scales", [
    (8, 8, (1, 2, 4)), (7, 5, (2, 3)), (11, 9, (3, 5)), (1, 1, (1,))])
def test_regional_pool_bitwise_matches_slice_oracle(dtype, height, width, scales):
    # nested (8x8) and non-nested grids; forward, x.grad and region_avg_pool
    rng = np.random.default_rng(height * width)
    for k in scales:
        spec = CoordinateSetSpec("regional", k, width, height)
        x = Tensor(rng.standard_normal((3, 4, height, width)) + 2.0, dtype=dtype)
        og = rng.standard_normal((3, k * k, 4)).astype(dtype)
        with Tape() as tape:
            out = coordinate_avg_pool(x, spec)
        (_, _, bwd), = tape._entries
        bwd(og.reshape(-1, 4))
        want_y, want_grad = slice_pool(x.data, og, spec)
        assert out.dtype == x.grad.dtype == dtype
        assert out.data.tobytes() == want_y.tobytes(), k
        assert x.grad.tobytes() == want_grad.tobytes(), k
        # region_avg_pool runs the sites' band sums, so it is bound, not bitwise
        single = region_avg_pool(Tensor(x.data[1]), spec)
        bound = 1e-12 if dtype == np.float64 else FLOAT32_SITE_BOUND
        assert single.dtype == dtype, k
        assert np.abs(single - want_y[1]).max() <= bound * np.abs(want_y[1]).max(), k


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("height,width,k", [(8, 8, 2), (8, 8, 4), (7, 5, 3), (11, 9, 5),
                                            (6, 6, 1), (1, 1, 1)])
def test_region_avg_pool_is_bitwise_the_sites_pool(dtype, height, width, k):
    # criterion 3 checks region_avg_pool against rect_sum, so it has to be
    # the pool the sites run, bit for bit; the sites' rows are the means
    # mapped by a weight, and means @ eye(D).T is the means themselves
    spec = CoordinateSetSpec("regional", k, width, height)
    rng = np.random.default_rng(height * 100 + width * 10 + k)
    x = (rng.standard_normal((5, height, width)) + 2.0).astype(dtype)
    got = region_avg_pool(Tensor(x), spec)
    want = regional_pool(Tensor(x[None]), [spec], [Tensor(np.eye(5), dtype=dtype)])[0].data
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def pooled_with_grad(pool, x, ogs, ws):
    """pool(x, ws)'s (N*M_s, .) outputs, then x.grad and each w's grad when
    output s gets og s; x and ws are arrays, wrapped in fresh leaves."""
    x, ws = Tensor(x), [Tensor(w) for w in ws]
    with Tape() as tape:
        ys = pool(x, ws)
        loss = reduce(add, [sum_all(mul(y, Tensor(og))) for y, og in zip(ys, ogs)])
    backward(tape, loss)
    return [y.data for y in ys] + [x.grad] + [w.grad for w in ws]


@st.composite
def regional_sites(draw):
    """(height, width, scales): a lattice of 1-12 per side and 1-3 distinct scales."""
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    scales = draw(st.lists(st.integers(1, min(height, width)), min_size=1, max_size=3,
                           unique=True))
    return height, width, tuple(scales)


FLOAT32_SITE_BOUND = 1e-6


@settings(max_examples=120, deadline=None, derandomize=True)
@given(site=regional_sites(), channel_major=st.booleans())
@example(site=(8, 8, (1, 2, 4)), channel_major=True)       # nested grids
@example(site=(5, 7, (2, 3)), channel_major=False)         # edges that do not nest
@example(site=(9, 11, (1, 3, 5)), channel_major=True)
@example(site=(3, 12, (1, 2, 3)), channel_major=False)     # one-pixel rows
@example(site=(1, 1, (1,)), channel_major=False)           # a one-pixel lattice
def test_regional_pool_matches_per_scale_oracle(site, channel_major):
    # every scale's mapped means, x.grad and each weight's grad against one
    # coordinate_avg_pool and one linear per scale; a lone K=1 scale is a
    # direct sum either way, so bitwise
    height, width, scales = site
    specs = [CoordinateSetSpec("regional", k, width, height) for k in scales]
    rng = np.random.default_rng(height * 100 + width)
    x = rng.standard_normal((3, 4, height, width)) + 2.0
    if channel_major:
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    ws = [rng.standard_normal((2, 4)) for _ in specs]
    ogs = [rng.standard_normal((3 * s.vector_count, 2)) for s in specs]
    for dtype, bound in ((np.float64, 1e-12), (np.float32, FLOAT32_SITE_BOUND)):
        xd, ogd, wd = x.astype(dtype), [og.astype(dtype) for og in ogs], \
            [w.astype(dtype) for w in ws]
        got = pooled_with_grad(lambda t, wt: regional_pool(t, specs, wt), xd, ogd, wd)
        want = pooled_with_grad(
            lambda t, wt: [linear(coordinate_avg_pool(t, s), w) for s, w in zip(specs, wt)],
            xd, ogd, wd)
        for a, b in zip(got, want):
            assert a.dtype == dtype and a.shape == b.shape
            if scales == (1,):
                assert a.tobytes() == b.tobytes()
            else:
                assert np.abs(a - b).max() <= bound * np.abs(b).max()


def test_regional_site_float32_tracks_float64_at_workload_lattice():
    # a (1, 2, 4) site on a stage-0 lattice, past the 12x12 the fuzzing
    # reaches: regional_pool's means (identity weights, so the rows are the
    # means themselves), then the gate's backward over og * x
    specs = [CoordinateSetSpec("regional", k, 32, 32) for k in (1, 2, 4)]
    rng = np.random.default_rng(36)
    x = (rng.standard_normal((32, 48, 32, 32)) + 3.0).astype(np.float32)
    vs = [rng.standard_normal((32 * s.vector_count, 48)).astype(np.float32) for s in specs]
    ogs = [rng.standard_normal((32 * s.vector_count, 48)).astype(np.float32) for s in specs]
    og = rng.standard_normal(x.shape).astype(np.float32)
    got = []
    for dtype in (np.float32, np.float64):
        xt, vt = Tensor(x.astype(dtype)), [Tensor(v.astype(dtype)) for v in vs]
        eye = [Tensor(np.eye(48), dtype=dtype) for _ in specs]
        with Tape() as tape:
            means = regional_pool(xt, specs, eye)
            loss = reduce(add, [sum_all(mul(y, Tensor(g.astype(dtype))))
                                for y, g in zip(means, ogs)])
            loss = add(loss, sum_all(mul(gate(xt, vt, specs), Tensor(og.astype(dtype)))))
        backward(tape, loss)
        got.append([m.data for m in means] + [xt.grad] + [v.grad for v in vt])
    for a, b in zip(*got):
        assert a.dtype == np.float32 and a.shape == b.shape
        assert np.abs(a - b).max() <= FLOAT32_SITE_BOUND * np.abs(b).max()


def test_regional_pool_rejects_sliding_and_mismatched_specs():
    x, w = Tensor(np.zeros((1, 3, 6, 6))), Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        regional_pool(x, [CoordinateSetSpec("sliding", 2, 6, 6)], [w])
    with pytest.raises(ValueError):
        regional_pool(x, [CoordinateSetSpec("regional", 2, 6, 6),
                          CoordinateSetSpec("regional", 2, 7, 6)], [w, w])
    # one (r, D) weight per spec, each reading the map's 3 channels
    specs = [CoordinateSetSpec("regional", k, 6, 6) for k in (1, 2)]
    assert [z.shape for z in regional_pool(x, specs, [w, w])] == [(1, 2), (4, 2)]
    for ws in ([], [w], [w, w, w], [w, Tensor(np.zeros((2, 4)))], [w, Tensor(np.zeros(3))]):
        with pytest.raises(ValueError, match="regional_pool:"):
            regional_pool(x, specs, ws)


def test_region_avg_pool_records_nothing():
    spec = CoordinateSetSpec("regional", 2, 4, 4)
    with Tape() as tape:
        region_avg_pool(Tensor(np.ones((2, 4, 4))), spec)
        raw = region_avg_pool(np.ones((2, 4, 4), dtype=np.float32), spec)
    assert len(tape) == 0
    assert raw.dtype == np.float64      # raw arrays are read as float64


def test_broadcast_weights_regional_fills_cells():
    spec = CoordinateSetSpec("regional", 2, 4, 4)
    z = np.arange(8, dtype=float).reshape(4, 2)
    out = broadcast_weights(Tensor(z), spec)
    assert out.shape == (1, 2, 4, 4)
    # channel 0 takes values 0, 2, 4, 6 over the four quadrants
    assert (out.data[0, 0, :2, :2] == 0).all()
    assert (out.data[0, 0, :2, 2:] == 2).all()
    assert (out.data[0, 0, 2:, :2] == 4).all()
    assert (out.data[0, 0, 2:, 2:] == 6).all()


def test_broadcast_weights_sliding_is_reshape():
    rng = np.random.default_rng(27)
    spec = CoordinateSetSpec("sliding", 2, 4, 4)
    z = rng.standard_normal((2 * 16, 3))
    out = broadcast_weights(Tensor(z), spec)
    want = z.reshape(2, 4, 4, 3).transpose(0, 3, 1, 2)
    assert np.allclose(out.data, want, atol=1e-12)


def test_pooling_gradients_both_strategies():
    rng = np.random.default_rng(28)
    for spec in (CoordinateSetSpec("regional", 3, 8, 8),
                 CoordinateSetSpec("sliding", 2, 8, 8),
                 CoordinateSetSpec("sliding", 4, 8, 8)):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        assert check_gradients(lambda: coordinate_avg_pool(x, spec), [x], rng) < TOLERANCE
        z = Tensor(rng.standard_normal((2 * spec.vector_count, 3)))
        assert check_gradients(lambda: broadcast_weights(z, spec), [z], rng) < TOLERANCE


def test_pool_then_broadcast_roundtrip_is_cellwise_mean():
    # regional pooling then broadcast replaces each cell by its own mean
    rng = np.random.default_rng(29)
    x = rng.standard_normal((2, 3, 6, 6))
    spec = CoordinateSetSpec("regional", 2, 6, 6)
    pooled = coordinate_avg_pool(Tensor(x), spec)
    back = broadcast_weights(pooled, spec)
    rects = {coordinate_set(spec, q, p)[0] for p in range(6) for q in range(6)}
    for h1, h2, w1, w2 in rects:
        cell = back.data[:, :, h1:h2 + 1, w1:w2 + 1]
        want = x[:, :, h1:h2 + 1, w1:w2 + 1].mean(axis=(2, 3), keepdims=True)
        assert np.allclose(cell, np.broadcast_to(want, cell.shape), atol=1e-12)


def sat_box_means(x, spec):
    """Centred summed-area-table box means of (..., H, W) maps: the sliding pool's oracle."""
    height, width = spec.height, spec.width
    r = int(spec.threshold)
    mu = x.mean(axis=(-2, -1), keepdims=True)
    sat = np.cumsum(np.cumsum(x - mu, axis=-2), axis=-1)
    pad = np.zeros(x.shape[:-2] + (height + 1, width + 1), dtype=sat.dtype)
    pad[..., 1:, 1:] = sat
    h1, h2 = np.maximum(0, np.arange(height) - r), np.minimum(height - 1, np.arange(height) + r)
    w1, w2 = np.maximum(0, np.arange(width) - r), np.minimum(width - 1, np.arange(width) + r)
    sums = (pad[..., h2 + 1, :][..., w2 + 1]
            - pad[..., h1, :][..., w2 + 1]
            - pad[..., h2 + 1, :][..., w1]
            + pad[..., h1, :][..., w1])
    counts = ((h2 - h1 + 1)[:, None] * (w2 - w1 + 1)[None, :]).astype(x.dtype)
    return sums / counts + mu, counts


def sat_pool(x, og, spec):
    """The summed-area pool's (N*H*W, D) forward and its x.grad for og."""
    n, d, height, width = x.shape
    means, counts = sat_box_means(x, spec)
    u = og.reshape(n, height, width, d).transpose(0, 3, 1, 2) / counts
    return (means.transpose(0, 2, 3, 1).reshape(-1, d),
            sat_box_means(u, spec)[0] * counts)


def window_pool(x, og, spec):
    """Each position's clipped window sliced out and averaged, and its x.grad for og."""
    n, d, height, width = x.shape
    og = og.reshape(n, height * width, d)
    y = np.empty((n, height * width, d))
    grad = np.zeros_like(x)
    for p in range(height):
        for q in range(width):
            (h1, h2, w1, w2), size = coordinate_set(spec, q, p)
            y[:, p * width + q] = x[:, :, h1:h2 + 1, w1:w2 + 1].mean(axis=(2, 3))
            grad[:, :, h1:h2 + 1, w1:w2 + 1] += (og[:, p * width + q] / size)[:, :, None, None]
    return y.reshape(-1, d), grad


SLIDING_CASES = [(7, 5, 2), (11, 9, 3), (6, 13, 4), (32, 32, 1), (32, 32, 2), (32, 32, 4),
                 (4, 4, 2), (1, 1, 1), (1, 1, 3), (3, 20, 1), (20, 3, 1)]


@pytest.mark.parametrize("height,width,k", SLIDING_CASES)
def test_sliding_pool_matches_summed_area_and_window_oracles(height, width, k):
    # the oracle pool, and project_pool with an identity weight, whose rows
    # are the means themselves, so the window kernel the sites run is
    # checked too; 4x4 at K=2 misses whole-axis windows by one; 3x20 and
    # 20x3 at K=1 cover one axis whole and not the other
    spec = CoordinateSetSpec("sliding", k, width, height)
    rng = np.random.default_rng(height * 100 + width * 10 + k)
    x = rng.standard_normal((2, 3, height, width)) + 2.0
    og = rng.standard_normal((2 * height * width, 3))
    wants = (sat_pool(x, og, spec), window_pool(x, og, spec))
    for pool in (lambda t: coordinate_avg_pool(t, spec),
                 lambda t: project_pool(t, Tensor(np.eye(3)), spec)):
        xt = Tensor(x)
        with Tape() as tape:
            out = pool(xt)
        (_, _, bwd), = tape._entries
        bwd(og)
        for want_y, want_grad in wants:
            assert np.abs(out.data - want_y).max() <= 1e-12
            assert np.abs(xt.grad - want_grad).max() <= 1e-12
        single = region_avg_pool(x[1], spec)
        assert np.abs(single - out.data.reshape(2, -1, 3)[1]).max() <= 1e-12
        # adjoint identity <pool(x), og> = <x, pool^T(og)>
        lhs, rhs = np.vdot(out.data, og), np.vdot(x, xt.grad)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("height,width,k", [(8, 8, 2), (7, 5, 3), (11, 9, 5), (32, 32, 4),
                                            (1, 1, 1), (1, 9, 2), (9, 1, 2)])
def test_sliding_region_avg_pool_is_bitwise_the_sites_pool(dtype, height, width, k):
    # criterion 3 checks region_avg_pool against rect_sum, so it has to be
    # the sliding sites' pool, bit for bit: project_pool with an identity
    # weight, whose projection eye(D) @ x is x itself
    spec = CoordinateSetSpec("sliding", k, width, height)
    rng = np.random.default_rng(height * 100 + width * 10 + k)
    x = (rng.standard_normal((5, height, width)) + 2.0).astype(dtype)
    got = region_avg_pool(Tensor(x), spec)
    want = project_pool(Tensor(x[None]), Tensor(np.eye(5), dtype=dtype), spec).data
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("height,width", [(1, 1), (1, 9), (9, 1)])
def test_pools_never_write_their_input(height, width):
    # with a one-pixel side a transposed copy's layout is the input's own,
    # so np.ascontiguousarray would return a view there, and a kernel that
    # centred it in place would write the input
    rng = np.random.default_rng(height * 10 + width)
    x = rng.standard_normal((2, 3, height, width)) + 2.0
    w = rng.standard_normal((2, 3))
    og = rng.standard_normal((2 * height * width, 2))
    inputs = [x, w, og]
    saved = [a.copy() for a in inputs]
    for spec in (CoordinateSetSpec("sliding", 1, width, height),
                 CoordinateSetSpec("sliding", 3, width, height),
                 CoordinateSetSpec("regional", 1, width, height)):
        region_avg_pool(x[0], spec)
        region_avg_pool(Tensor(x[1]), spec)
    for k in (1, 3):
        with Tape() as tape:
            project_pool(Tensor(x), Tensor(w), CoordinateSetSpec("sliding", k, width, height))
        (_, _, bwd), = tape._entries
        bwd(og)
    for a, b in zip(inputs, saved):
        assert a.tobytes() == b.tobytes()


def _float32_sliding_pool_errors(pool):
    """Largest float32 - float64 output and x.grad differences of pool(x, spec)."""
    # an offset map is where an uncentred float32 summed-area table loses
    # digits: its running sums reach 3 * 112 * 112
    spec = CoordinateSetSpec("sliding", 4, 112, 112)
    rng = np.random.default_rng(30)
    x32 = (rng.standard_normal((2, 4, 112, 112)) + 3.0).astype(np.float32)
    # the backward window sums run over og / size, centred like the forward
    # map, so give og an offset too
    og32 = (rng.standard_normal((2 * 112 * 112, 4)) + 3.0).astype(np.float32)
    outs, grads = [], []
    for dtype in (np.float32, np.float64):
        x = Tensor(x32.astype(dtype))
        with Tape() as tape:
            outs.append(pool(x, spec).data)
        (_, _, bwd), = tape._entries
        bwd(og32.astype(dtype))
        grads.append(x.grad)
    assert outs[0].dtype == grads[0].dtype == np.float32
    return np.abs(outs[0] - outs[1]).max(), np.abs(grads[0] - grads[1]).max()


def test_sliding_float32_box_means_track_float64():
    out_err, grad_err = _float32_sliding_pool_errors(coordinate_avg_pool)
    assert out_err <= 1e-6 and grad_err <= 1e-6


def test_sliding_float32_project_pool_tracks_float64():
    # the production kernel on the same map: _window_sums' centring keeps
    # both passes within 1e-6 (uncentred they read ~1.8e-6 and ~1.5e-6)
    out_err, grad_err = _float32_sliding_pool_errors(
        lambda x, spec: project_pool(x, Tensor(np.eye(4, dtype=x.dtype)), spec))
    assert out_err <= 1e-6 and grad_err <= 1e-6


def project_pool_run(x, w, spec, og, pool_first=False):
    """Output, x.grad and w.grad of project_pool, or of pool-then-linear."""
    x, w = Tensor(x), Tensor(w)
    with Tape() as tape:
        if pool_first:
            out = linear(coordinate_avg_pool(x, spec), w)
        else:
            out = project_pool(x, w, spec)
        loss = sum_all(mul(out, Tensor(og)))
    backward(tape, loss)
    return out.data, x.grad, w.grad


@pytest.mark.parametrize("height, width, k", [(8, 8, 2), (5, 7, 3), (6, 13, 1), (9, 11, 4)])
@pytest.mark.parametrize("layout", ["batch-major", "channel-major"])
def test_project_pool_is_linear_of_pooled(height, width, k, layout):
    # conv2d hands over (N, D, H, W) views of channel-major memory
    spec = CoordinateSetSpec("sliding", k, width, height)
    rng = np.random.default_rng(32)
    x = rng.standard_normal((3, 5, height, width))
    if layout == "channel-major":
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    w = rng.standard_normal((2, 5))
    og = rng.standard_normal((3 * height * width, 2))
    got = project_pool_run(x, w, spec, og)
    want = project_pool_run(x, w, spec, og, pool_first=True)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("side, k", [(32, 2), (32, 4), (112, 4)])
def test_project_pool_float32_tracks_float64(side, k):
    # an uncentred float32 prefix sum over an offset map loses digits.
    # w.grad is one float32 GEMM over N*H*W products, whose rounding
    # (3.7e-6 at 112x112 when pooling first) owes nothing to the window sums
    spec = CoordinateSetSpec("sliding", k, side, side)
    rng = np.random.default_rng(33)
    x = rng.standard_normal((2, 6, side, side)) + 3.0
    w = rng.standard_normal((2, 6))
    og = rng.standard_normal((2 * side * side, 2)) + 3.0
    f32 = [a.astype(np.float32) for a in (x, w, og)]
    got = project_pool_run(f32[0], f32[1], spec, f32[2])
    want = project_pool_run(x, w, spec, og)
    for a, b, bound in zip(got, want, (1e-6, 1e-6, 1e-5)):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() <= bound * np.abs(b).max()


def test_project_pool_rejects_regional_and_mismatched_weight():
    x = Tensor(np.zeros((1, 3, 6, 6)))
    with pytest.raises(ValueError):
        project_pool(x, Tensor(np.zeros((2, 3))), CoordinateSetSpec("regional", 2, 6, 6))
    with pytest.raises(ValueError):
        project_pool(x, Tensor(np.zeros((2, 4))), CoordinateSetSpec("sliding", 2, 6, 6))


def _layout_spec(strategy, k):
    return CoordinateSetSpec(strategy, k, 9, 7)


LAYOUT_POOLS = {     # name: (count of (2, D) weights the pool maps by, pool)
    "regional": (0, lambda x, ws: [coordinate_avg_pool(x, _layout_spec("regional", 3))]),
    "sliding": (0, lambda x, ws: [coordinate_avg_pool(x, _layout_spec("sliding", 3))]),
    "project_pool": (1, lambda x, ws: [project_pool(x, ws[0], _layout_spec("sliding", 2))]),
    "regional_pool": (3, lambda x, ws: regional_pool(
        x, [_layout_spec("regional", k) for k in (1, 2, 3)], ws)),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_POOLS))
def test_pools_do_not_depend_on_input_layout(name):
    # a batch-major and a channel-major copy of the same values (conv2d
    # writes the latter) pool and backpropagate to the same bits
    rng = np.random.default_rng(35)
    x = rng.standard_normal((3, 5, 7, 9)) + 2.0
    count, pool = LAYOUT_POOLS[name]
    ws = [rng.standard_normal((2, 5)) for _ in range(count)]
    ogs = [rng.standard_normal(y.shape) for y in pool(Tensor(x), [Tensor(w) for w in ws])]
    channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    got = [pooled_with_grad(pool, layout, ogs, ws) for layout in (x, channel_major)]
    for a, b in zip(*got):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_excite_map_rejects_mismatched_rows_and_weight():
    # excite checks its weight; gate checks the rows against x's lattice
    # (test_gate_rejects_sliding_rows_of_another_count)
    rest = (Tensor(np.ones(3)), Tensor(np.zeros(3)), BNState(3), True)
    with pytest.raises(ValueError, match="excite:"):          # weight reads 1 of 2 columns
        excite(Tensor(np.zeros((16, 2))), Tensor(np.zeros((3, 1))), *rest)


@pytest.mark.parametrize("count", [15, 17, 48])
def test_gate_rejects_sliding_rows_of_another_count(count):
    # a sliding scale on a 4x4 map at batch 2 takes N*H*W = 32 rows of 3, nothing else
    spec = CoordinateSetSpec("sliding", 2, 4, 4)
    x = Tensor(np.ones((2, 3, 4, 4)))
    assert gate(x, [Tensor(np.full((32, 3), 0.5))], [spec]).shape == x.shape
    with pytest.raises(ValueError, match="gate:"):
        gate(x, [Tensor(np.full((count, 3), 0.5))], [spec])


def excite_with_grads(forward, u, w, gamma, beta, state, training, probe):
    """forward's gates, then the gradients of u, w, gamma and beta for probe . gates."""
    leaves = [Tensor(t) for t in (u, w, gamma, beta)]
    with Tape() as tape:
        out = forward(*leaves, state, training)
        loss = sum_all(mul(out, Tensor(probe)))
    backward(tape, loss)
    return [out.data] + [t.grad for t in leaves]


def bn_state(d, rng, dtype):
    st = BNState(d, dtype=dtype)
    st.mean[...], st.var[...] = rng.standard_normal(d), rng.uniform(0.5, 1.5, d)
    return st


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("count", [32 * 16, 32 * 4, 32, 3, 2, 1])
def test_excite_matches_chain_oracle(count, training, dtype):
    # a regional scale's rows at batch 32 (K = 4, 2, 1) and degenerate
    # batches of 1-3 rows at r = 4, where R has fewer rows than columns:
    # gates, every gradient and the running statistics against linear,
    # batch_norm and sigmoid in float64 on the same inputs, each within its
    # bound of the array's largest entry.  One row has zero variance in
    # training mode.  Two rows normalize to +-1 whatever u and w are, so
    # their gradients are residues of eps, near zero in exact arithmetic
    # (float64 against long double: u's 7.2e-12 and w's 2.9e-12 of their own
    # largest entry here, the chain's 6.5e-13 and 2.4e-13), measured against
    # the largest gradient entry
    rng = np.random.default_rng(count)
    r, d = 4, 6
    u = np.maximum(rng.standard_normal((count, r)), 0).astype(dtype)
    w, beta = (rng.standard_normal(shape).astype(dtype) for shape in ((d, r), (d,)))
    gamma = rng.uniform(0.5, 1.5, d).astype(dtype)
    probe = rng.standard_normal((count, d)).astype(dtype)
    states = [bn_state(d, np.random.default_rng(7), t) for t in (dtype, np.float64)]
    got = excite_with_grads(excite, u, w, gamma, beta, states[0], training, probe)
    u, w, gamma, beta, probe = (t.astype(np.float64) for t in (u, w, gamma, beta, probe))
    want = excite_with_grads(expand_chain, u, w, gamma, beta, states[1], training, probe)
    got += [states[0].mean, states[0].var]
    want += [states[1].mean, states[1].var]
    bound = 1e-12 if dtype == np.float64 else FLOAT32_SITE_BOUND
    grads = max(np.abs(g).max() for g in want[1:5])
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == dtype and a.shape == b.shape, i
        ref = grads if count == 2 and training and i in (1, 2) else np.abs(b).max()
        assert np.abs(a - b).max() <= bound * ref, i


def test_gate_is_input_times_mean_of_broadcast_maps():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 3, 5, 7))
    specs = [CoordinateSetSpec("regional", k, 7, 5) for k in (2, 3)]
    vs = [rng.standard_normal((2 * s.vector_count, 3)) for s in specs]
    maps = [broadcast_weights(Tensor(v), s).data for v, s in zip(vs, specs)]
    out = gate(Tensor(x), [Tensor(v) for v in vs], specs)
    assert np.allclose(out.data, x * (maps[0] + maps[1]) / 2, atol=1e-15)


GATE_SKIP_SETS = {"regional": (("regional", 1), ("regional", 2), ("regional", 3)),
                  "sliding": (("sliding", 1), ("sliding", 2)),
                  "mixed": (("regional", 2), ("sliding", 1), ("regional", 3))}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("scale_set", sorted(GATE_SKIP_SETS))
def test_gate_with_skip_is_bitwise_relu_of_add(scale_set, dtype):
    # relu(x * mean + skip) in the product's buffer: output and the
    # gradients of x, the skip and every scale's gates are the bits of
    # relu(add(gate(...), skip)), the residual tail it replaces
    rng = np.random.default_rng(36)
    specs = [CoordinateSetSpec(strategy, k, 7, 5) for strategy, k in GATE_SKIP_SETS[scale_set]]
    shape = (2, 3, 5, 7)
    x = rng.standard_normal(shape).astype(dtype)
    skip = rng.standard_normal(shape).astype(dtype)
    vs = [rng.uniform(0.1, 0.9, (2 * s.vector_count, 3)).astype(dtype) for s in specs]
    probe = Tensor(rng.standard_normal(shape), dtype=dtype)
    results = []
    for fused in (True, False):
        tx, ts, tvs = Tensor(x), Tensor(skip), [Tensor(v) for v in vs]
        with Tape() as tape:
            out = gate(tx, tvs, specs, skip=ts) if fused else \
                relu(add(gate(tx, tvs, specs), ts))
            loss = sum_all(mul(out, probe))
        backward(tape, loss)
        results.append([out.data, tx.grad, ts.grad] + [t.grad for t in tvs])
    for got, want in zip(*results):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert (results[0][0] == 0).any() and (results[0][0] > 0).any()


def test_gate_gradients_both_strategies():
    rng = np.random.default_rng(32)
    # a sliding scale's gates are a row per pixel, viewed as its map
    for strategy, scales in (("regional", (2, 3)), ("sliding", (1, 2))):
        specs = [CoordinateSetSpec(strategy, k, 7, 5) for k in scales]
        x = Tensor(rng.standard_normal((2, 3, 5, 7)))
        vs = [Tensor(rng.standard_normal((2 * s.vector_count, 3))) for s in specs]
        err = check_gradients(lambda: gate(x, vs, specs), [x] + vs, rng)
        assert err < TOLERANCE


@pytest.mark.parametrize("shape", [(10, 3), (18, 3), (8, 4), (4, 3), (16, 3), (2, 4, 3)],
                         ids=["5-cells", "9-cells", "width-4", "batch-1", "batch-4",
                              "per-image-blocks"])
def test_gate_rejects_regional_gates_of_another_shape(shape):
    # a K=2 scale on a 4x4 map at batch 2 takes (2 * 4, 3) rows, nothing else
    spec = CoordinateSetSpec("regional", 2, 4, 4)
    x = Tensor(np.ones((2, 3, 4, 4)))
    assert gate(x, [Tensor(np.full((8, 3), 0.5))], [spec]).shape == x.shape
    with pytest.raises(ValueError, match="gate:"):
        gate(x, [Tensor(np.full(shape, 0.5))], [spec])
    with pytest.raises(ValueError, match="gate:"):
        gate(x, [Tensor(np.full((8, 3), 0.5)), Tensor(np.full(shape, 0.5))],
             [spec, CoordinateSetSpec("regional", 1, 4, 4)])


def test_gate_rejects_mismatched_vectors():
    spec = CoordinateSetSpec("regional", 2, 4, 4)
    x = Tensor(np.zeros((1, 3, 4, 4)))
    v = Tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        gate(x, [v, v], [spec])                               # 2 vector sets, 1 spec
    with pytest.raises(ValueError):
        gate(x, [], [])
    with pytest.raises(ValueError, match="gate:"):            # rows of a scale on 8x8
        gate(x, [v], [CoordinateSetSpec("regional", 2, 8, 8)])
    with pytest.raises(ValueError, match="gate:"):            # a sliding map, not rows
        gate(x, [Tensor(np.zeros((1, 3, 4, 4)))], [CoordinateSetSpec("sliding", 2, 4, 4)])
    with pytest.raises(ValueError):                           # skip of another shape
        gate(x, [v], [spec], skip=Tensor(np.zeros((1, 3, 4, 2))))


def backward_peak(op, og):
    """Peak bytes traced while the one tape entry op() records runs its backward on og."""
    with Tape() as tape:
        op()
    (_name, _out, bwd), = tape._entries
    tracemalloc.start()
    try:
        bwd(og)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_excite_training_backward_forms_one_full_size_array():
    # a stage-0 sliding scale at batch 32: dpre is the only (D, rows) array;
    # projecting dpre off the pre-norm rows element-wise took a second one
    # (2.06x), the r x r terms take (rows, r) arrays (1.19x)
    rng = np.random.default_rng(43)
    count, r, d = 32 * 32 * 32, 1, 16
    u = Tensor(np.maximum(rng.standard_normal((count, r)), 0), dtype=np.float32)
    w, gamma, beta = (Tensor(rng.standard_normal(shape), dtype=np.float32)
                      for shape in ((d, r), (d,), (d,)))
    og = rng.standard_normal((count, d)).astype(np.float32)
    state = BNState(d, dtype=np.float32)
    peak = backward_peak(lambda: excite(u, w, gamma, beta, state, True), og)
    assert peak < 1.5 * d * count * og.itemsize


@pytest.mark.parametrize("layout, bound", [("batch-major", 2.75), ("channel-major", 1.75)])
def test_gate_skip_backward_hands_og_to_the_skip(layout, bound):
    # a regional (1, 2, 4) residual tail at batch 32: x's gradient is formed
    # in the mean map's buffer and the skip takes og itself, so one
    # full-size product, og * x, is live beside og; copying og for the skip
    # read 3.25x (2.25x channel-major).  _scale_sums copies a batch-major
    # product channel-major
    rng = np.random.default_rng(44)
    shape = (32, 16, 32, 32)

    def draw():
        a = rng.standard_normal(shape)
        return a if layout == "batch-major" else \
            np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)

    x, skip, og = Tensor(draw()), Tensor(draw()), draw()
    specs = [CoordinateSetSpec("regional", k, 32, 32) for k in (1, 2, 4)]
    vs = [Tensor(rng.uniform(0.1, 0.9, (32 * s.vector_count, 16))) for s in specs]
    assert backward_peak(lambda: gate(x, vs, specs, skip), og) < bound * og.nbytes
