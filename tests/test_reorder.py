import ast
import math
from pathlib import Path

import numpy as np
import pytest

from topoflow import reorder
from topoflow.errors import ShapeError
from topoflow.fields import GridSpec

import oracles


def brute_force_sector_orders(spec, u, v):
    """Independent oracle: per sector, stable sort of (projection, raster index)."""
    per_sector = {}
    c, r, p = spec.sector_cols, spec.sector_rows, spec.patch
    for s in range(spec.n_sectors):
        sy, sx = divmod(s, spec.sectors_x)
        cells = (slice(sy * r * p, (sy + 1) * r * p), slice(sx * c * p, (sx + 1) * c * p))
        theta = reorder.patch_wind_direction(u[cells], v[cells])
        entries = []
        for local_row in range(r):
            for local_col in range(c):
                prow = sy * r + local_row
                pcol = sx * c + local_col
                idx = prow * spec.patches_x + pcol
                x = (local_col + 0.5) / c
                y = (local_row + 0.5) / r
                pi = x * math.cos(theta) + y * math.sin(theta)
                entries.append((pi, idx))
        per_sector[s] = [idx for _, idx in sorted(entries, key=lambda e: (e[0], e[1]))]
    return per_sector


def sector_orders_from_perm(spec, order):
    """Extract each sector's ordered patch list out of the global slot order."""
    orders = {}
    layout = reorder._sector_layout(spec)
    for s in range(spec.n_sectors):
        orders[s] = list(order[layout[s]])
    return orders


# -- wind direction ----------------------------------------------------------

def test_direction_pure_east():
    u = np.ones((4, 4))
    v = np.zeros((4, 4))
    assert reorder.patch_wind_direction(u, v) == 0.0


def test_direction_pure_north_axis():
    u = np.zeros((4, 4))
    v = np.full((4, 4), 2.0)
    assert reorder.patch_wind_direction(u, v) == pytest.approx(math.pi / 2)


def test_direction_two_cells_equal_magnitude():
    # cells {(1,0), (0,1)}: equal weights, component means (0.5, 0.5)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert reorder.patch_wind_direction(u, v) == pytest.approx(math.pi / 4)


def test_direction_zero_wind_sentinel():
    z = np.zeros((3, 3))
    assert reorder.patch_wind_direction(z, z) == 0.0


def test_direction_weighted_vs_plain():
    # one strong westward cell vs many weak eastward cells
    u = np.array([-10.0, 1.0, 1.0, 1.0])
    v = np.zeros(4)
    assert reorder.patch_wind_direction(u, v) == pytest.approx(math.pi)
    # the plain component mean points east (+0.25); the magnitude weights
    # let the strong westward cell win
    u2 = np.array([-2.0, 1.0, 1.0, 1.0])
    assert u2.mean() == 0.25
    assert reorder.patch_wind_direction(u2, v) == pytest.approx(math.pi)


def test_sector_angle_is_magnitude_weighted_in_the_permutation():
    # through `build_permutation`: sector 0 holds one strong westward cell
    # among fifteen weak eastward ones, whose plain mean points east; the
    # weighted angle is pi, so its slots run east -> west. Sector 1 blows
    # east throughout and keeps raster order under angle 0
    spec = GridSpec(2, 16, 2, 4, 1)
    assert spec.n_sectors == 2 and spec.patches_per_sector == 4
    u, v = np.ones((2, 16)), np.zeros((2, 16))
    u[0, 3] = -10.0
    assert u[:, :8].mean() > 0.0
    order, angles = reorder.build_permutation(spec, u, v)
    assert angles.tolist() == [math.pi, 0.0]
    assert order.tolist() == [3, 2, 1, 0, 4, 5, 6, 7]


# -- projection ---------------------------------------------------------------

def test_projection_axis_aligned():
    assert reorder.projection(0.3, 0.9, 0.0) == pytest.approx(0.3)
    assert reorder.projection(0.3, 0.9, math.pi / 2) == pytest.approx(0.9)


def test_projection_hand_value():
    assert reorder.projection(0.5, 0.25, math.pi / 4) == pytest.approx(0.75 * math.sqrt(2) / 2)
    assert reorder.projection(0.5, 0.25, math.pi / 4) == pytest.approx(0.5303, abs=1e-4)


# -- permutation construction --------------------------------------------------

def test_uniform_east_wind_sorts_west_to_east():
    # single 2x2-patch sector; expect columns west->east, rows tie-broken top first
    spec = GridSpec(4, 4, 2, 2, 2)
    u = np.ones((4, 4))
    v = np.zeros((4, 4))
    order, _ = reorder.build_permutation(spec, u, v)
    assert order.dtype == np.int64
    assert list(order) == [0, 2, 1, 3]
    assert sector_orders_from_perm(spec, order) == brute_force_sector_orders(spec, u, v)


def test_zero_wind_gives_identity():
    spec = GridSpec(8, 8, 2, 2, 2)
    z = np.zeros((8, 8))
    order, angles = reorder.build_permutation(spec, z, z)
    assert np.array_equal(order, np.arange(spec.n_patches))
    assert np.all(angles == 0.0)


def test_inverse_round_trip_random():
    spec = GridSpec(8, 16, 2, 4, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=(8, 16))
        v = rng.normal(size=(8, 16))
        order, _ = reorder.build_permutation(spec, u, v)
        inverse, n = np.argsort(order), spec.n_patches
        assert np.array_equal(inverse[order], np.arange(n))
        assert np.array_equal(order[inverse], np.arange(n))


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(123)
    specs = [GridSpec(8, 8, 2, 2, 2), GridSpec(8, 16, 2, 4, 4), GridSpec(16, 16, 4, 2, 2)]
    for trial in range(200):
        spec = specs[trial % len(specs)]
        u = rng.normal(size=(spec.height, spec.width))
        v = rng.normal(size=(spec.height, spec.width))
        order, _ = reorder.build_permutation(spec, u, v)
        assert sector_orders_from_perm(spec, order) == brute_force_sector_orders(spec, u, v)


def test_block_structure_random_winds():
    spec = GridSpec(16, 16, 2, 4, 4)
    layout = reorder._sector_layout(spec)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.normal(size=(16, 16))
        v = rng.normal(size=(16, 16))
        order, _ = reorder.build_permutation(spec, u, v)
        for s in range(spec.n_sectors):
            assert set(order[layout[s]]) == set(layout[s])


def test_determinism_bitwise():
    spec = GridSpec(8, 16, 2, 4, 2)
    rng = np.random.default_rng(9)
    u = rng.normal(size=(8, 16))
    v = rng.normal(size=(8, 16))
    o1, a1 = reorder.build_permutation(spec, u, v)
    o2, a2 = reorder.build_permutation(spec, u.copy(), v.copy())
    assert np.array_equal(o1, o2)
    assert np.array_equal(a1, a2)


# -- apply / unapply -----------------------------------------------------------

def test_apply_identity_and_round_trip():
    spec = GridSpec(8, 8, 2, 2, 2)
    ident = np.arange(spec.n_patches)
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(spec.n_patches, 5))
    np.testing.assert_array_equal(oracles.apply(ident, tokens), tokens)
    u = rng.normal(size=(8, 8))
    v = rng.normal(size=(8, 8))
    order, _ = reorder.build_permutation(spec, u, v)
    # not its own inverse, so an unapply that gathers by the order fails here
    assert not np.array_equal(order[order], np.arange(spec.n_patches))
    np.testing.assert_array_equal(reorder.unapply(order, oracles.apply(order, tokens)), tokens)


def test_single_swap_exchanges_tokens():
    # 1x2 patch grid, westward wind: the two tokens swap
    spec = GridSpec(2, 4, 2, 2, 1)
    u = np.full((2, 4), -1.0)
    v = np.zeros((2, 4))
    order, _ = reorder.build_permutation(spec, u, v)
    assert list(order) == [1, 0]
    tokens = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(oracles.apply(order, tokens), tokens[::-1])


def test_apply_length_mismatch():
    spec = GridSpec(8, 8, 2, 2, 2)
    ident = np.arange(spec.n_patches)
    with pytest.raises(ShapeError):
        oracles.apply(ident, np.zeros((spec.n_patches + 1, 3)))
    with pytest.raises(ShapeError):
        reorder.unapply(ident, np.zeros((2, 3)))


def test_apply_takes_n_by_c_tokens_only():
    spec = GridSpec(8, 8, 2, 2, 2)
    n = spec.n_patches
    for shape in ((n,), (1, n, 3), (2, n, 3)):
        for fn in (oracles.apply, reorder.unapply):
            with pytest.raises(ShapeError):
                fn(np.arange(n), np.zeros(shape))


def test_sort_work_scales_with_sector_size():
    # smoke check on the K*M*log(M) complexity claim via comparison counting
    class Counted(float):
        count = 0

        def __lt__(self, other):
            Counted.count += 1
            return float.__lt__(self, other)

    def measure(spec, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(spec.height, spec.width))
        v = rng.normal(size=(spec.height, spec.width))
        orders = brute_force_sector_orders(spec, u, v)
        Counted.count = 0
        c, r = spec.sector_cols, spec.sector_rows
        for s in range(spec.n_sectors):
            theta = 0.7
            keys = [Counted((i % c) * math.cos(theta) + (i // c) * math.sin(theta))
                    for i in range(spec.patches_per_sector)]
            sorted(keys)
        assert orders  # oracle ran
        return Counted.count

    small = measure(GridSpec(16, 16, 2, 2, 2), 0)   # K=16, M=4
    large = measure(GridSpec(16, 16, 2, 8, 8), 0)   # K=1,  M=64
    def model(k, m):
        return k * m * math.log2(m)
    ratio = large / small
    expected = model(1, 64) / model(16, 4)
    assert 0.2 * expected < ratio < 5.0 * expected


# -- where a slot order may be read ---------------------------------------------

ORDER_NAMES = ("order", "orders")


def _is_order(node):
    """A slot-order value: a name or attribute called `order` or `orders`,
    or rows of one, such as `arrays.orders[idx]`."""
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    return ((isinstance(node, ast.Name) and node.id in ORDER_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in ORDER_NAMES))


def _order_reads(tree):
    """Reads of a slot order in a module's syntax tree, other than handing
    it, or rows of it, to a `reorder` function by position
    (`reorder.sector_ranks(orders, layout)`) and filling its rows
    (`orders[i] = ...`)."""
    handed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "reorder"):
            handed.update(id(sub) for arg in node.args for sub in ast.walk(arg))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            handed.add(id(node.value))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and _is_order(node) and id(node) not in handed):
            yield node


def test_train_and_evalkit_pass_slot_orders_without_gathering():
    """The slot orders stay inside `train.prepare_arrays`: `train` builds
    them and hands them only to `reorder`, whose `sector_ranks` turns them
    into the ranks `model.forward` takes, and `evalkit` holds none, so
    neither gathers anything through them."""
    src = Path(__file__).resolve().parents[1] / "src" / "topoflow"
    trees = {name: ast.parse((src / name).read_text(encoding="utf-8"))
             for name in ("train.py", "evalkit.py")}
    assert any(_is_order(node) for node in ast.walk(trees["train.py"]))
    assert [node.lineno for node in _order_reads(trees["train.py"])] == []
    assert not any(_is_order(node) for node in ast.walk(trees["evalkit.py"]))


def test_slot_order_finder_sees_each_form():
    tree = ast.parse(
        "np.take(t, order)\nt[orders]\nx[:, order]\n"
        "forward(store, config, x, orders=arrays.orders[idx])\nzip(orders, out)\n"
        "rows = orders[idx]\nn = order.shape\n"
        "orders = np.tile(r, (2, 1))\norders[i] = reorder.build_permutation(spec, u, v)[0]\n"
        "ranks = reorder.sector_ranks(orders, layout)\nreorder.unapply(order[rows], t)\n"
        "t[border]\nnp.take(t, perm)\n"
    )
    assert sorted({node.lineno for node in _order_reads(tree)}) == [1, 2, 3, 4, 5, 6, 7]
