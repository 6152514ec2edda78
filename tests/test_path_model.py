import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwigner.path_model import (
    ClosedPath,
    EnumerationLimitError,
    Trajectory,
    canonical_closed_paths,
    classify_instants,
    count_trajectories,
    count_trajectories_factorial,
    enumerate_trajectories,
    has_marked_origin,
    last_step_split,
    path_to_string,
    tally_edges,
    trajectory_from_string,
    trajectory_of,
    trajectory_to_string,
)

NINE_PATH = ClosedPath(vertices=(1, 2, 1, 3, 4, 5, 6, 3, 1), ambient_n=6)


def random_closed_path(n_vertices, length, rng):
    """Uniform closed path: free vertices i_0..i_{L-1}, rejected until closed."""
    while True:
        verts = [int(v) + 1 for v in rng.integers(0, n_vertices, length + 1)]
        if verts[-1] == verts[0]:
            return ClosedPath(vertices=tuple(verts), ambient_n=n_vertices)


def odd_edge_count(path):
    """Edges traversed an odd number of times, counted over unordered vertex pairs."""
    counts = Counter(frozenset(pair) for pair in zip(path.vertices, path.vertices[1:]))
    return sum(1 for c in counts.values() if c % 2 == 1)


def marks_of(path):
    return [j for j, m in enumerate(classify_instants(path), start=1) if m]


def test_classify_examples():
    assert classify_instants(ClosedPath((1, 2, 1), 2)) == [True, False]
    assert classify_instants(ClosedPath((1, 2, 3, 1), 3)) == [True, True, True]
    assert marks_of(NINE_PATH) == [1, 3, 4, 5, 6, 7]


def test_trajectory_examples():
    assert trajectory_to_string(trajectory_of(ClosedPath((1, 2, 1), 2))) == "UD"
    t = trajectory_of(ClosedPath((1, 2, 3, 1), 3))
    assert t.steps == (1, 1, 1) and t.end_level == 3
    t9 = trajectory_of(NINE_PATH)
    assert t9.steps == (1, -1, 1, 1, 1, 1, 1, -1)
    assert t9.end_level == 4 and t9.down_steps == 2


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory((-1, 1))  # dips below zero
    with pytest.raises(ValueError):
        Trajectory((1, 0))  # not a +-1 step
    # the end level is derived from the steps, never declared
    assert Trajectory((1, 1)).end_level == 2
    assert Trajectory((1, -1, 1)).end_level == 1
    assert Trajectory(()).end_level == 0


def test_enumerate_small_classes():
    assert [trajectory_to_string(t) for t in enumerate_trajectories(1, 0)] == ["UD"]
    strings = {trajectory_to_string(t) for t in enumerate_trajectories(1, 2)}
    assert strings == {"UUUD", "UUDU", "UDUU"}
    assert len(enumerate_trajectories(3, 0)) == 5  # Catalan(3)


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        enumerate_trajectories(16, 0)


def test_count_closed_forms_agree():
    for total in range(0, 13):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            assert count_trajectories(m, l) == count_trajectories_factorial(m, l)
    assert count_trajectories(1, 2) == 3
    assert count_trajectories(2, 2) == 9
    assert math.comb(6, 4) - math.comb(6, 1) == 9
    assert count_trajectories(3, 0) == 5


def test_count_matches_enumeration():
    for total in range(1, 11):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            assert len(enumerate_trajectories(m, l)) == count_trajectories(m, l)


def test_last_step_split():
    up, down = last_step_split(1, 2)
    assert (up, down) == (2, 1)
    assert up + down == count_trajectories(1, 2)
    # Dyck paths end with a down step
    up, down = last_step_split(3, 0)
    assert up == 0 and down == count_trajectories(2, 1)
    # all-up paths end with an up step
    up, down = last_step_split(0, 4)
    assert (up, down) == (1, 0)


def test_last_step_split_matches_enumeration():
    for total in range(1, 11):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            trajectories = enumerate_trajectories(m, l)
            ups = sum(1 for t in trajectories if t.steps[-1] == 1)
            downs = len(trajectories) - ups
            assert last_step_split(m, l) == (ups, downs)


def marked_origin_reference(path):
    """Some instant j with i_j equal to the origin is marked (from the instant marks)."""
    origin = path.vertices[0]
    return any(marked and v == origin
               for marked, v in zip(classify_instants(path), path.vertices[1:]))


def test_marked_origin():
    def marked(path):
        return has_marked_origin(path, trajectory_of(path))

    # origin 1 is marked at instant 3 of the triangle
    assert marked(ClosedPath((1, 2, 3, 1), 3))
    # {1,2,1}: instants land on 2 (marked) and 1 (unmarked)
    assert not marked(ClosedPath((1, 2, 1), 2))
    assert not marked(NINE_PATH)
    for path in canonical_closed_paths(6, 4):
        assert marked(path) == marked_origin_reference(path)


def test_tally_edges_counts_and_marks():
    keys, counts, marks = tally_edges(NINE_PATH)
    assert keys == NINE_PATH.edge_keys()
    assert marks == classify_instants(NINE_PATH)
    assert counts == {(1, 2): 2, (1, 3): 2, (3, 4): 1, (4, 5): 1, (5, 6): 1, (3, 6): 1}
    assert list(counts) == list(dict.fromkeys(keys))  # first-traversal order


def test_odd_edge_count_examples():
    # the end level l of the trajectory is the number of odd-multiplicity edges
    for path, odd in ((ClosedPath((1, 2, 1), 2), 0), (ClosedPath((1, 2, 3, 1), 3), 3),
                      (NINE_PATH, 4)):
        assert odd_edge_count(path) == trajectory_of(path).end_level == odd


def test_random_path_invariants_bulk():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
    for _ in range(10_000):
        length = int(rng.integers(1, 11))
        n_verts = int(rng.integers(1, 6))
        p = random_closed_path(n_verts, length, rng)
        traj = trajectory_of(p)
        l, m = traj.end_level, traj.down_steps
        assert l + 2 * m == length
        assert sum(classify_instants(p)) == l + m
        assert odd_edge_count(p) == l


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_path_properties_hypothesis(interior):
    verts = tuple([1] + interior + [1])
    p = ClosedPath(vertices=verts, ambient_n=4)
    traj = trajectory_of(p)
    l, m = traj.end_level, traj.down_steps
    assert l >= 0
    assert l + 2 * m == p.length
    assert sum(classify_instants(p)) == l + m
    assert odd_edge_count(p) == l


def test_serialization_round_trips():
    assert path_to_string(NINE_PATH) == "1,2,1,3,4,5,6,3,1"
    t = trajectory_from_string("UUDU")
    assert trajectory_to_string(t) == "UUDU"
    with pytest.raises(ValueError):
        trajectory_from_string("UXD")


def test_closed_path_validation():
    with pytest.raises(ValueError):
        ClosedPath((1, 2), 2)  # not closed
    with pytest.raises(ValueError):
        ClosedPath((1, 5, 1), 4)  # vertex out of range
    with pytest.raises(ValueError):
        ClosedPath((1,), 1)  # zero steps
