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


def sector_orders_from_perm(spec, perm):
    """Extract each sector's ordered patch list out of the global forward map."""
    orders = {}
    layout = reorder._sector_layout(spec)
    for s in range(spec.n_sectors):
        orders[s] = list(perm.forward[layout[s]])
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
    perm = reorder.build_permutation(spec, u, v)
    assert list(perm.forward) == [0, 2, 1, 3]
    assert sector_orders_from_perm(spec, perm) == brute_force_sector_orders(spec, u, v)


def test_zero_wind_gives_identity():
    spec = GridSpec(8, 8, 2, 2, 2)
    z = np.zeros((8, 8))
    perm = reorder.build_permutation(spec, z, z)
    assert np.array_equal(perm.forward, np.arange(spec.n_patches))
    assert np.array_equal(perm.inverse, np.arange(spec.n_patches))
    assert np.all(perm.angles == 0.0)


def test_inverse_round_trip_random():
    spec = GridSpec(8, 16, 2, 4, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=(8, 16))
        v = rng.normal(size=(8, 16))
        perm = reorder.build_permutation(spec, u, v)
        n = spec.n_patches
        assert np.array_equal(perm.inverse[perm.forward], np.arange(n))
        assert np.array_equal(perm.forward[perm.inverse], np.arange(n))


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(123)
    specs = [GridSpec(8, 8, 2, 2, 2), GridSpec(8, 16, 2, 4, 4), GridSpec(16, 16, 4, 2, 2)]
    for trial in range(200):
        spec = specs[trial % len(specs)]
        u = rng.normal(size=(spec.height, spec.width))
        v = rng.normal(size=(spec.height, spec.width))
        perm = reorder.build_permutation(spec, u, v)
        assert sector_orders_from_perm(spec, perm) == brute_force_sector_orders(spec, u, v)


def test_block_structure_random_winds():
    spec = GridSpec(16, 16, 2, 4, 4)
    layout = reorder._sector_layout(spec)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.normal(size=(16, 16))
        v = rng.normal(size=(16, 16))
        perm = reorder.build_permutation(spec, u, v)
        for s in range(spec.n_sectors):
            assert set(perm.forward[layout[s]]) == set(layout[s])


def test_determinism_bitwise():
    spec = GridSpec(8, 16, 2, 4, 2)
    rng = np.random.default_rng(9)
    u = rng.normal(size=(8, 16))
    v = rng.normal(size=(8, 16))
    p1 = reorder.build_permutation(spec, u, v)
    p2 = reorder.build_permutation(spec, u.copy(), v.copy())
    assert np.array_equal(p1.forward, p2.forward)
    assert np.array_equal(p1.angles, p2.angles)


# -- apply / unapply -----------------------------------------------------------

def test_apply_identity_and_round_trip():
    spec = GridSpec(8, 8, 2, 2, 2)
    ident = reorder.SectorPermutation.identity(spec)
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(spec.n_patches, 5))
    np.testing.assert_array_equal(oracles.apply(ident, tokens), tokens)
    u = rng.normal(size=(8, 8))
    v = rng.normal(size=(8, 8))
    perm = reorder.build_permutation(spec, u, v)
    # not its own inverse, so an unapply that gathers by `forward` fails here
    assert not np.array_equal(perm.forward[perm.forward], np.arange(spec.n_patches))
    np.testing.assert_array_equal(reorder.unapply(perm, oracles.apply(perm, tokens)), tokens)


def test_single_swap_exchanges_tokens():
    # 1x2 patch grid, westward wind: the two tokens swap
    spec = GridSpec(2, 4, 2, 2, 1)
    u = np.full((2, 4), -1.0)
    v = np.zeros((2, 4))
    perm = reorder.build_permutation(spec, u, v)
    assert list(perm.forward) == [1, 0]
    tokens = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(oracles.apply(perm, tokens), tokens[::-1])


def test_apply_length_mismatch():
    spec = GridSpec(8, 8, 2, 2, 2)
    perm = reorder.SectorPermutation.identity(spec)
    with pytest.raises(ShapeError):
        oracles.apply(perm, np.zeros((spec.n_patches + 1, 3)))
    with pytest.raises(ShapeError):
        reorder.unapply(perm, np.zeros((2, 3)))


def test_apply_takes_n_by_c_tokens_only():
    spec = GridSpec(8, 8, 2, 2, 2)
    perm = reorder.SectorPermutation.identity(spec)
    n = spec.n_patches
    for shape in ((n,), (1, n, 3), (2, n, 3)):
        for fn in (oracles.apply, reorder.unapply):
            with pytest.raises(ShapeError):
                fn(perm, np.zeros(shape))


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


# -- where the slot order may be read ----------------------------------------

def _slot_order_reads(tree):
    """Reads of a `.forward` or `.inverse` attribute in a module's syntax
    tree, a permutation's slot -> patch and patch -> slot arrays. A called
    attribute, such as `model.forward(...)`, is a function, not an order."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("forward", "inverse")
                and id(node) not in called):
            yield node


def test_slot_order_is_read_only_in_reorder_model_and_cli():
    """The slot order stays behind `model.forward`: only `reorder`, which
    builds it, `model`, which applies and undoes it, and `cli`'s `dump perm`
    read a permutation's arrays, so `train` and `evalkit` see raster tokens."""
    src = Path(__file__).resolve().parents[1] / "src" / "topoflow"
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {path.name for _ in _slot_order_reads(tree)}
    assert found == {"reorder.py", "model.py", "cli.py"}, sorted(found)


def test_slot_order_finder_sees_each_form():
    tree = ast.parse(
        "p.forward\nperm.inverse[i]\nnp.take(t, perms[0].forward)\nf = model.forward\n"
        "model.forward(x)\nmodel_mod.forward(store, config, x)\np.angles\n"
    )
    assert sorted(node.lineno for node in _slot_order_reads(tree)) == [1, 2, 3, 4]
