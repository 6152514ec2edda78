import math

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
    is_simple,
    last_step_split,
    path_from_string,
    path_to_string,
    path_type,
    random_closed_path,
    tally_edges,
    trajectory_from_string,
    trajectory_of,
    trajectory_to_string,
    vertex_stats,
)

NINE_PATH = ClosedPath(vertices=(1, 2, 1, 3, 4, 5, 6, 3, 1), ambient_n=6)


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
        Trajectory(steps=(-1, 1), end_level=0)  # dips below zero
    with pytest.raises(ValueError):
        Trajectory(steps=(1, 1), end_level=0)  # wrong end level


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


def test_path_type_examples():
    t = path_type(ClosedPath((1, 2, 1), 5))
    assert t.counts[0] == 4 and t.counts[1] == 1

    t2 = path_type(ClosedPath((1, 2, 3, 1), 5))
    assert t2.counts[0] == 2 and t2.counts[1] == 3

    t3 = path_type(NINE_PATH)
    assert (t3.counts[0], t3.counts[1], t3.counts[2]) == (1, 4, 1)


def test_is_simple():
    assert is_simple(ClosedPath((1, 2, 3, 1), 3))
    assert is_simple(ClosedPath((1, 2, 1), 2))
    assert not is_simple(ClosedPath((1, 2, 1, 2, 1), 2))


def test_marked_origin():
    # origin 1 is marked at instant 3 of the triangle
    assert has_marked_origin(ClosedPath((1, 2, 3, 1), 3))
    # {1,2,1}: instants land on 2 (marked) and 1 (unmarked)
    assert not has_marked_origin(ClosedPath((1, 2, 1), 2))
    assert not has_marked_origin(NINE_PATH)
    # a held trajectory gives the same answer
    for path in canonical_closed_paths(6, 4):
        assert has_marked_origin(path, trajectory_of(path)) == has_marked_origin(path)


def test_tally_edges_counts_and_marks():
    keys, counts, marks = tally_edges(NINE_PATH)
    assert keys == NINE_PATH.edge_keys()
    assert marks == classify_instants(NINE_PATH)
    assert counts == {(1, 2): 2, (1, 3): 2, (3, 4): 1, (4, 5): 1, (5, 6): 1, (3, 6): 1}
    assert list(counts) == list(dict.fromkeys(keys))  # first-traversal order


def test_vertex_stats_examples():
    s = vertex_stats(ClosedPath((1, 2, 1), 2))
    assert s.max_type == 1 and s.nonclosed == frozenset() and s.odd_edge_count == 0

    assert vertex_stats(ClosedPath((1, 2, 3, 1), 3)).odd_edge_count == 3

    s9 = vertex_stats(NINE_PATH)
    assert s9.odd_edge_count == 4
    assert s9.odd_edge_count == trajectory_of(NINE_PATH).end_level
    # vertex 3 is hit twice at marked instants with several open edges at its
    # unmarked departure
    assert s9.max_type == 2
    assert 3 in s9.nonclosed


def test_random_path_invariants_bulk():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
    for _ in range(10_000):
        length = int(rng.integers(1, 11))
        n_verts = int(rng.integers(1, 6))
        p = random_closed_path(n_verts, length, rng)
        traj = trajectory_of(p)
        t = path_type(p)
        l, m = traj.end_level, traj.down_steps
        assert l + 2 * m == length
        assert sum(t.counts) == p.ambient_n
        assert sum(k * c for k, c in enumerate(t.counts)) == l + m
        assert sum(classify_instants(p)) == l + m
        assert vertex_stats(p).odd_edge_count == l


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_path_properties_hypothesis(interior):
    verts = tuple([1] + interior + [1])
    p = ClosedPath(vertices=verts, ambient_n=4)
    traj = trajectory_of(p)
    assert traj.end_level >= 0
    assert traj.end_level == vertex_stats(p).odd_edge_count
    t = path_type(p)
    assert sum(t.counts) == 4
    assert sum(k * c for k, c in enumerate(t.counts)) == traj.end_level + traj.down_steps


def test_serialization_round_trips():
    assert path_to_string(NINE_PATH) == "1,2,1,3,4,5,6,3,1"
    assert path_from_string("1,2,1", ambient_n=2).vertices == (1, 2, 1)
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
