"""Property tests: the greedy chain against the distance-matrix greedy, on layouts built for ties.

The chain, the walk plan_waypoints runs per cluster, walks each cluster's
own distance matrix (`_matrix_chain`) in a plan whose clusters are all at
most CHAIN_TABLE_MIN_POINTS; a plan with a larger cluster, or on a bundle
that holds its chain index, walks the index (`_chain`): it takes most steps
from a point's row of certified nearest candidates and falls back to a full
distance row otherwise.
greedy_sequence over distance_matrix is the reference, and `chain_walk`
runs the chain over all the points as one cluster; the matrix walk is also
checked on its own at sizes on both sides of the threshold. The layouts are
the ones where a candidate table could go wrong: exact ties (lattices, duplicates),
more coincident copies of a point than the table lists (every step falls
back), far from the origin (large rounding in the differences), very tight
spreads, and a shell of points at exactly one distance whose rounded
distances differ by an ulp. Sizes run across CHAIN_TABLE_MIN_POINTS, so
both the matrix walk and the table walk run. The same layouts, cut into
interleaved clusters that walk one shared table, check plan_waypoints'
per-cluster walk, and replanned on one bundle, the deep rows that replace
the table rows of the points where earlier plans fell back. The certified
rows themselves (`_ChainIndex.candidates`) are checked against a full
(distance, index) lexsort, also on clumps a million apart and on points near
2**499, where one index's cell grid spans a huge extent. Every distance is
np.linalg.norm's rounding of the difference: the oracle is checked against
it, and a crafted pair of points that a sum of squares in another order
ranks the other way pins both walks to it.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_walk, make_waypoints
from turnplan.clustering import ClusterParams
from turnplan.geometry import Waypoints
from turnplan.sequencing import (CHAIN_CANDIDATES, CHAIN_TABLE_MIN_POINTS, _chain,
                                 _ChainIndex, _matrix_chain, distance_matrix, greedy_sequence,
                                 plan_waypoints)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)
MAX_POINTS = 400
OFFSET = np.array([1e3, -5e2, 2e2])


def cloud(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=(n, 3))
    if kind == "lattice":
        return rng.integers(0, 4, (n, 3)).astype(float)
    if kind == "lattice_005":
        return 0.05 * rng.integers(0, 4, (n, 3))
    if kind == "coincident":
        copies = CHAIN_CANDIDATES + 2 + int(rng.integers(0, 4))
        base = rng.normal(size=(-(-n // copies), 3))
        return rng.permutation(np.repeat(base, copies, axis=0))[:n]
    if kind == "offset":
        return 0.1 * rng.normal(size=(n, 3)) + OFFSET
    if kind == "offset_lattice":
        return 0.05 * rng.integers(0, 4, (n, 3)) + OFFSET
    if kind == "tight":
        return 1e-6 * rng.normal(size=(n, 3))
    if kind == "clumps":  # one grid over both spans a million units
        return rng.normal(size=(n, 3)) + 1e6 * rng.integers(0, 2, (n, 1))
    if kind == "huge":  # two clumps at the largest coordinates a bundle allows, below 2**500
        return (2.0**499 * rng.choice((-1.0, 1.0), (n, 1))
                + 2.0**498 * rng.uniform(-1.0, 1.0, (n, 3)))
    raise AssertionError(kind)


KINDS = ("normal", "lattice", "lattice_005", "coincident", "offset", "offset_lattice", "tight")
SIZES = st.one_of(st.integers(1, 2 * CHAIN_TABLE_MIN_POINTS), st.integers(1, MAX_POINTS))


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(KINDS), n=SIZES, seed=st.integers(0, 2**32 - 1),
       start_fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_greedy_chain_matches_matrix_greedy_on_any_layout(kind, n, seed, start_fraction):
    pts = cloud(kind, n, np.random.default_rng(seed))
    start = int(start_fraction * n)
    expected = greedy_sequence(distance_matrix(pts), start)
    assert chain_walk(pts, start) == expected


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 2 * CHAIN_TABLE_MIN_POINTS),
       seed=st.integers(0, 2**32 - 1), start_fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_matrix_walk_matches_matrix_greedy_across_the_threshold(kind, n, seed, start_fraction):
    # the walk of a plan that builds no chain index, also at sizes where a plan walks one
    pts = cloud(kind, n, np.random.default_rng(seed))
    start = int(start_fraction * n)
    walk = _matrix_chain(np.arange(n), start, pts.T.copy())
    assert tuple(walk.tolist()) == greedy_sequence(distance_matrix(pts), start)


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(KINDS), n=st.integers(1, MAX_POINTS), seed=st.integers(0, 2**32 - 1))
def test_distances_round_as_norm_does(kind, n, seed):
    # every distance the chain reads is rounded as distance_matrix rounds it
    pts = cloud(kind, n, np.random.default_rng(seed))
    assert np.array_equal(distance_matrix(pts), np.linalg.norm(pts[:, None] - pts, axis=2))


def crossed_pair(rng: np.random.Generator) -> np.ndarray:
    """A point (x, y, z) and its y-z swap whose distances from the origin round apart.

    Seeded search: draws until sqrt((x^2 + y^2) + z^2), np.linalg.norm's
    rounding, differs from sqrt((x^2 + z^2) + y^2). A rounding that adds
    the squares in the second order, as numpy's einsum does on some builds
    (its SIMD lanes set the order), ranks the two points the other way.
    """
    while True:
        x, y, z = rng.uniform(0.5, 1.5, 3)
        if np.sqrt((x * x + y * y) + z * z) != np.sqrt((x * x + z * z) + y * y):
            return np.array([[x, y, z], [x, z, y]])


def test_walks_take_the_nearest_point_by_the_norm_rounding():
    # from the origin, the first step goes to the pair's point with the smaller norm, in the
    # matrix walk and, padded with far points above CHAIN_TABLE_MIN_POINTS, the table walk
    rng = np.random.default_rng(0)
    for _ in range(20):
        pair = crossed_pair(rng)
        pts = np.vstack([np.zeros((1, 3)), pair])
        nearest = 1 + int(np.linalg.norm(pair, axis=1).argmin())
        assert _matrix_chain(np.arange(3), 0, pts.T.copy())[1] == nearest
        far = 100.0 + rng.normal(size=(CHAIN_TABLE_MIN_POINTS, 3))
        assert chain_walk(np.vstack([pts, far]), 0)[1] == nearest


def shell(extra: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """A center, 48 points at exactly one distance from it, and `extra` far points,
    shuffled; returns the points and the center's index.

    The 48 sign changes and permutations of one vector lie at one distance
    from the center, but their rounded sums of squares differ by an ulp, and
    in another order than the permutations list them: a step from the
    center, taken from the table, must take the nearest by the row's own
    rounding, ties to the lowest index.
    """
    radius = 10.0 ** int(rng.integers(-3, 3))
    vector = radius * rng.uniform(0.5, 1.5, 3)
    points = sorted({tuple(s * v for s, v in zip(signs, perm))
                     for perm in itertools.permutations(vector.tolist())
                     for signs in itertools.product((1.0, -1.0), repeat=3)})
    pts = np.vstack([np.zeros((1, 3)), points, 10.0 * radius * rng.normal(size=(extra, 3))])
    shuffle = rng.permutation(len(pts))
    return pts[shuffle], int(np.flatnonzero(shuffle == 0)[0])


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1),
       extra=st.integers(CHAIN_TABLE_MIN_POINTS - 48, CHAIN_TABLE_MIN_POINTS))
def test_greedy_chain_matches_matrix_greedy_from_a_shell_center(seed, extra):
    pts, start = shell(extra, np.random.default_rng(seed))
    assert len(pts) > CHAIN_TABLE_MIN_POINTS
    expected = greedy_sequence(distance_matrix(pts), start)
    assert chain_walk(pts, start) == expected


def equal_distance_layouts(m: int) -> dict[str, np.ndarray]:
    """m points with many exactly or nearly equal distances, for the small-cluster walk."""
    turn = 2.0 * np.pi * np.arange(m) / m
    polygon = np.column_stack([np.cos(turn), np.sin(turn), np.zeros(m)])
    half = -(-m // 2)
    return {
        "polygon": polygon,  # equal sides, and equal diagonals up to rounding
        "polygon_and_center": np.vstack([np.zeros((1, 3)), polygon[:m - 1]]),
        "offset_polygon": 0.05 * polygon + OFFSET,
        "duplicated": np.repeat(polygon[:half], 2, axis=0)[:m],  # each vertex twice
        "coincident": np.zeros((m, 3)),
        "collinear": np.outer(np.arange(m), (1.0, 0.0, 0.0)),  # two neighbours at one distance
        "collinear_runs": np.outer(np.arange(m) % half, (0.0, 0.05, 0.0)) + OFFSET,
    }


def test_small_cluster_walk_matches_matrix_greedy_from_every_start():
    # every start of every size up to 32 and of two larger sizes that walk their own
    # distance matrix, the largest among them; the property test above covers the rest
    for m in (*range(2, 33), 64, CHAIN_TABLE_MIN_POINTS):
        for kind, pts in equal_distance_layouts(m).items():
            reference = distance_matrix(pts)
            for start in range(m):
                assert chain_walk(pts, start) == greedy_sequence(reference, start), (kind, m, start)


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(KINDS + ("shell", "clumps", "huge")), n=st.integers(2, MAX_POINTS),
       seed=st.integers(0, 2**32 - 1), query_fraction=st.floats(0.0, 1.0),
       width_fraction=st.floats(0.0, 1.0))
def test_certified_rows_equal_a_full_lexsort(kind, n, seed, query_fraction, width_fraction):
    # which entries a row certifies depends on the grid's cells, so the rows are checked
    # against the properties the walk needs: each row's certified entries (those that are
    # not the query itself) are, in order, a prefix of a full (distance, index) lexsort of
    # the other points, and each is strictly nearer the query than every point the row
    # does not certify. Lattices, duplicates and shells hold exact ties; clumps a million
    # apart and points near 2**499 stretch one grid over a huge extent
    rng = np.random.default_rng(seed)
    pts = shell(n // 2, rng)[0] if kind == "shell" else cloud(kind, n, rng)
    query = rng.permutation(len(pts))[:max(1, int(query_fraction * len(pts)))]
    width = 2 + int(width_fraction * (len(pts) - 2))
    index = _ChainIndex(pts)
    # the cell keys did not overflow: they ascend from 0 and each axis has at most 2**20 + 1 cells
    assert index.span.max() <= 2**20 and index.occupied[0] >= 0
    assert (np.diff(index.occupied) > 0).all()
    rows = index.candidates(query, width)
    assert rows.shape == (len(query), width)
    dist = distance_matrix(pts)
    for i, row in zip(query.tolist(), rows):
        certified = row[row != i]
        others = np.lexsort((np.arange(len(pts)), dist[i]))
        others = others[others != i]
        assert np.array_equal(certified, others[:len(certified)])
        if len(certified) and len(certified) < len(others):
            assert dist[i, certified[-1]] < dist[i, others[len(certified)]]


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(KINDS + ("shell",)), n=st.integers(1, MAX_POINTS),
       parts=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_shared_table_walk_matches_matrix_greedy_per_cluster(kind, n, parts, seed):
    # plan_waypoints' walk: one bundle table over all points, clusters of
    # interleaved random members (so most listed neighbours belong to other
    # clusters), and one slot list shared by every cluster; a bundle of more
    # than CHAIN_TABLE_MIN_POINTS holds its table, as after a plan with a large
    # cluster, and walks it for every cluster, small ones too
    rng = np.random.default_rng(seed)
    pts, center = shell(n // 2, rng) if kind == "shell" else (cloud(kind, n, rng), -1)
    bundle = Waypoints(positions=pts, table_angles=np.zeros(len(pts)))
    index = _ChainIndex(bundle.positions) if len(pts) > CHAIN_TABLE_MIN_POINTS else None
    labels = rng.integers(0, parts, len(pts))
    slot = [0] * len(pts)
    for part in range(parts):
        members = np.flatnonzero(labels == part).tolist()
        if not members:
            continue
        local_start = members.index(center) if center in members else int(
            rng.integers(len(members)))
        remaining = pts.T[:, members]
        order = (_matrix_chain(np.array(members), local_start, remaining) if index is None
                 else _chain(index, np.array(members), local_start, slot, remaining)).tolist()
        expected = greedy_sequence(distance_matrix(pts[members]), local_start)
        assert order == [members[i] for i in expected]
    assert not any(slot)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS + ("shell",)), n=st.integers(2, MAX_POINTS),
       seed=st.integers(0, 2**32 - 1),
       replans=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2**16)),
                        min_size=3, max_size=6))
def test_replans_on_deep_rows_match_fresh_plans_and_matrix_greedy(kind, n, seed, replans):
    # one bundle replanned with other seeds and k: from the second plan on it
    # walks deep rows for the points where earlier plans fell back, and each
    # plan must still equal a fresh bundle's, which has none, and the matrix
    # greedy per cluster; a shell's equal distances test the tie rule in a deep row
    rng = np.random.default_rng(seed)
    pts = shell(n // 2, rng)[0] if kind == "shell" else cloud(kind, n, rng)
    bundle = make_waypoints(pts)
    for k, plan_seed in replans:
        params = ClusterParams(k=k, seed=plan_seed)
        plan = plan_waypoints(bundle, params)
        fresh = plan_waypoints(make_waypoints(pts), params)
        assert [s.tolist() for s in plan.sequences] == [s.tolist() for s in fresh.sequences]
        for seq in plan.sequences:
            members = sorted(seq)
            expected = greedy_sequence(distance_matrix(pts[members]), members.index(seq[0]))
            assert list(seq) == [members[i] for i in expected]
