import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwigner.path_model
from dwigner.correspondence import glue_paths, k_statistic, trajectory_surgery
from dwigner.path_model import (
    EnumerationLimitError,
    canonical_closed_paths,
    count_trajectories,
    count_trajectories_factorial,
    edge_codes,
    enumerate_trajectories,
    instant_marks,
    last_step_split,
    trajectory_of,
    trajectory_rows,
    trajectory_to_string,
)
from reference import (
    closed_path_tuples,
    edge_keys,
    enumerate_trajectories_recursive,
    has_marked_origin,
    tally_edges,
    trajectory_from_string,
)

NINE_PATH = (1, 2, 1, 3, 4, 5, 6, 3, 1)


def random_closed_path(n_vertices, length, rng):
    """Uniform closed path: free vertices i_0..i_{L-1}, rejected until closed."""
    while True:
        verts = [int(v) + 1 for v in rng.integers(0, n_vertices, length + 1)]
        if verts[-1] == verts[0]:
            return tuple(verts)


def odd_edge_count(path):
    """Edges traversed an odd number of times, counted over unordered vertex pairs."""
    counts = Counter(frozenset(pair) for pair in zip(path, path[1:]))
    return sum(1 for c in counts.values() if c % 2 == 1)


def traj(path):
    """The trajectory of one closed vertex tuple, through a one-row array."""
    rows = trajectory_of(np.array([path]))
    assert rows.dtype == np.int8 and rows.shape == (1, len(path) - 1)
    return tuple(rows[0].tolist())


def marks_of(path):
    return [j for j, m in enumerate(tally_edges(path)[2], start=1) if m]


def test_classify_examples():
    assert tally_edges((1, 2, 1))[2] == [True, False]
    assert tally_edges((1, 2, 3, 1))[2] == [True, True, True]
    assert marks_of(NINE_PATH) == [1, 3, 4, 5, 6, 7]


def test_trajectory_examples():
    assert trajectory_to_string(traj((1, 2, 1))) == "UD"
    assert traj((1, 2, 3, 1)) == (1, 1, 1)
    t9 = traj(NINE_PATH)
    assert t9 == (1, -1, 1, 1, 1, 1, 1, -1)
    assert sum(t9) == 4 and t9.count(-1) == 2
    # one row per path, each row its own path's trajectory
    rows = trajectory_of(np.array([(1, 2, 1, 1), (1, 2, 3, 1), (1, 1, 1, 1)]))
    assert rows.tolist() == [[1, -1, 1], [1, 1, 1], [1, -1, 1]]


def test_trajectory_validation():
    # the row functions that read walks refuse rows that are no nonnegative
    # +-1 walk, with the error of the first failing row
    for call in (lambda rows: k_statistic(rows, 1),
                 lambda rows: trajectory_surgery(rows, 0, np.zeros(len(rows), int))):
        with pytest.raises(ValueError, match="dips below zero"):
            call(np.array([(1, 1), (-1, 1)]))
        with pytest.raises(ValueError, match="steps must be"):
            call(np.array([(1, 1), (1, 0), (-1, 1)]))
        with pytest.raises(ValueError, match="dips below zero"):
            call(np.array([(-1, 1), (1, 0)]))
    # the end level is read from the steps
    assert k_statistic(np.empty((1, 0), np.int8), 1).tolist() == [1]


def test_enumerate_small_classes():
    assert [trajectory_to_string(t) for t in enumerate_trajectories(1, 0).tolist()] == ["UD"]
    strings = [trajectory_to_string(t) for t in enumerate_trajectories(1, 2).tolist()]
    assert strings == ["UUUD", "UUDU", "UDUU"]
    assert len(enumerate_trajectories(3, 0)) == 5  # Catalan(3)
    # one int8 array: the arrays of trajectory_rows, concatenated
    walks = enumerate_trajectories(10, 0)
    assert walks.dtype == np.int8 and walks.shape == (16_796, 20)
    assert walks.tolist() == [list(x) for x in enumerate_trajectories_recursive(10, 0)]


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        enumerate_trajectories(16, 0)
    # the rows form refuses at the call, before any walk is grown
    with pytest.raises(EnumerationLimitError):
        trajectory_rows(16, 0)
    with pytest.raises(ValueError):
        trajectory_rows(-1, 2)


def class_rows(m, l):
    """The walks trajectory_rows yields for a class, checking each array's
    dtype, width and row count against the chunk constant."""
    arrays = list(trajectory_rows(m, l))
    for rows in arrays:
        assert rows.dtype == np.int8 and rows.shape[1] == l + 2 * m
        assert 0 < len(rows) <= dwigner.path_model.ROW_CHUNK
    return [tuple(steps) for rows in arrays for steps in rows.tolist()]


def test_trajectory_rows_match_the_recursive_reference():
    classes = [(m, total - 2 * m) for total in range(0, 17) for m in range(0, total // 2 + 1)]
    for m, l in classes + [(10, 0)]:  # Catalan(10) = 16,796 walks span several arrays
        assert class_rows(m, l) == enumerate_trajectories_recursive(m, l)


def test_trajectory_rows_keep_the_order_across_chunks(monkeypatch):
    monkeypatch.setattr(dwigner.path_model, "ROW_CHUNK", 7)
    for total in range(0, 17):
        for m in range(0, total // 2 + 1):
            expected = enumerate_trajectories_recursive(m, total - 2 * m)
            assert class_rows(m, total - 2 * m) == expected


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
            ups = int(np.count_nonzero(trajectories[:, -1] == 1))
            downs = len(trajectories) - ups
            assert last_step_split(m, l) == (ups, downs)


def marked_origin_reference(path):
    """Some instant j with i_j equal to the origin is marked (from the instant marks)."""
    return any(marked and v == path[0] for marked, v in zip(tally_edges(path)[2], path[1:]))


def test_marked_origin():
    def marked(path):
        return has_marked_origin(path, traj(path))

    # origin 1 is marked at instant 3 of the triangle
    assert marked((1, 2, 3, 1))
    # {1,2,1}: instants land on 2 (marked) and 1 (unmarked)
    assert not marked((1, 2, 1))
    assert not marked(NINE_PATH)
    paths = closed_path_tuples(6, 4)
    for path, steps in zip(paths, trajectory_of(np.array(paths)).tolist()):
        assert has_marked_origin(path, steps) == marked_origin_reference(path)


def test_tally_edges_counts_and_marks():
    keys, counts, marks = tally_edges(NINE_PATH)
    assert keys == edge_keys(NINE_PATH) == [(1, 2), (1, 2), (1, 3), (3, 4), (4, 5), (5, 6),
                                            (3, 6), (1, 3)]
    assert marks == [True, False, True, True, True, True, True, False]
    assert counts == {(1, 2): 2, (1, 3): 2, (3, 4): 1, (4, 5): 1, (5, 6): 1, (3, 6): 1}
    assert list(counts) == list(dict.fromkeys(keys))  # first-traversal order


def restricted_growth_reference(length, max_vertices):
    """Closed-path shapes in lexicographic order: every vertex word starting
    at 1 whose letters exceed the running maximum by at most one."""
    out = []
    for word in itertools.product(range(1, max_vertices + 1), repeat=length - 1):
        seq = (1, *word)
        if all(v <= max(seq[:j]) + 1 for j, v in enumerate(seq) if j):
            out.append((seq + (1,), max(seq)))
    return out


def test_one_tally_per_path_and_canonical_order():
    for length in range(1, 9):
        paths = closed_path_tuples(length, 4)
        assert [(v, max(v)) for v in paths] == restricted_growth_reference(length, 4)
        rows = trajectory_of(np.array(paths))
        for path, steps in zip(paths, rows.tolist()):
            marks = tally_edges(path)[2]
            tally = tally_edges(path)
            assert list(tally[1]) == list(dict.fromkeys(tally[0]))  # first-traversal order
            assert marks == tally[2] and steps == [1 if b else -1 for b in marks]
            marks.append(None)  # each call returns its own lists
            assert len(tally[2]) == length


def recursive_closed_paths(length, max_vertices):
    """The generator as a recursion over positions: the reference for the walk."""
    seq = [1]

    def rec(pos, used):
        if pos == length:
            yield tuple(seq) + (1,), used
            return
        for v in range(1, min(used + 1, max_vertices) + 1):
            seq.append(v)
            yield from rec(pos + 1, max(used, v))
            seq.pop()

    yield from rec(1, 1)


def test_canonical_paths_match_the_recursive_reference():
    for length in range(1, 9):
        for max_vertices in range(0, 6):
            got = closed_path_tuples(length, max_vertices)
            want = list(recursive_closed_paths(length, max_vertices))
            assert [(v, max(v)) for v in got] == want


def test_canonical_paths_come_as_int8_arrays_of_bounded_size():
    for length in range(1, 10):
        for max_vertices in range(1, 12):
            arrays = list(canonical_closed_paths(length, max_vertices))
            bound = max(dwigner.path_model.ROW_CHUNK, min(max_vertices, length))
            for rows in arrays:
                assert rows.dtype == np.int8 and rows.shape[1] == length + 1
                assert 0 < len(rows) <= bound
            assert sum(map(len, arrays)) == len(list(recursive_closed_paths(length, max_vertices)))


def test_canonical_paths_keep_the_order_across_chunks(monkeypatch):
    monkeypatch.setattr(dwigner.path_model, "ROW_CHUNK", 7)
    for length in range(1, 9):
        for max_vertices in range(0, 6):
            arrays = list(canonical_closed_paths(length, max_vertices))
            assert all(0 < len(rows) <= max(7, max_vertices) for rows in arrays)
            got = [tuple(v) for rows in arrays for v in rows.tolist()]
            want = list(recursive_closed_paths(length, max_vertices))
            assert got == [v for v, _ in want]


def test_canonical_paths_preconditions():
    for length in (0, -1):
        with pytest.raises(ValueError, match="length must be >= 1"):
            canonical_closed_paths(length, 3)
    for max_vertices in (0, -2):
        assert list(canonical_closed_paths(4, max_vertices)) == []
    for max_vertices in (-1, 0, 1, 5):
        (rows,) = canonical_closed_paths(1, max_vertices)
        assert rows.dtype == np.int8 and rows.tolist() == [[1, 1]]


def test_marks_kernel_matches_tally_edges():
    # the rows kernel and its one-row case against the dict route, every
    # canonical path with L <= 8 on <= 5 vertices, one array per length
    for length in range(1, 9):
        shapes = closed_path_tuples(length, 5)
        codes = edge_codes(np.array(shapes, dtype=np.int8))
        marks, odd = instant_marks(codes)
        assert marks.dtype == odd.dtype == bool
        steps = trajectory_of(np.array(shapes, dtype=np.int8))
        for path, code_row, mark_row, odd_row, step_row in zip(shapes, codes, marks, odd, steps):
            keys, counts, tallied = tally_edges(path)
            assert mark_row.tolist() == tallied
            assert step_row.tolist() == [1 if b else -1 for b in tallied]
            assert odd_row.tolist() == [counts[key] % 2 == 1 for key in keys]
            # equal codes exactly for equal unordered edges
            assert len(set(code_row.tolist())) == len(counts)


def test_marks_kernel_word_widths_agree():
    # labels up to 5 take uint16 words, up to 10 uint64 and beyond Python
    # ints; adding a row with wider labels must not change any other row
    rng = np.random.Generator(np.random.Philox(key=np.array([6, 1], dtype=np.uint64)))
    paths = [random_closed_path(5, 9, rng) for _ in range(50)]
    rows = np.array(paths)
    alone = instant_marks(edge_codes(rows))
    for top in (10, 40):
        wide = np.vstack([rows, np.array([[1, top, 2, top, 3, 1, 4, 2, 5, 1]])])
        marks, odd = instant_marks(edge_codes(wide))
        assert (marks[:-1] == alone[0]).all() and (odd[:-1] == alone[1]).all()
        keys, counts, tallied = tally_edges(tuple(wide[-1].tolist()))
        assert marks[-1].tolist() == tallied
        assert odd[-1].tolist() == [counts[key] % 2 == 1 for key in keys]


@pytest.mark.parametrize("label", [1, 181, 182, 255, 256, 46340, 46341, 10**6])
def test_edge_codes_at_the_narrow_type_boundaries(label):
    # the codes are computed in int16 up to label 181 and in int64 beyond;
    # at and past that boundary, and far past it, they equal the Python-int
    # formula
    path = (1, label, label, max(label - 1, 1), label, 1)
    expected = [hi * (hi - 1) // 2 + lo - 1
                for lo, hi in (sorted(edge) for edge in zip(path, path[1:]))]
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint32):
        if label <= np.iinfo(dtype).max:
            codes = edge_codes(np.array([path, (1,) * len(path)], dtype=dtype))
            assert codes.dtype == np.int64
            assert codes.tolist() == [expected, [0] * (len(path) - 1)], dtype


def test_odd_edge_count_examples():
    # the end level l of the trajectory is the number of odd-multiplicity edges
    for path, odd in (((1, 2, 1), 0), ((1, 2, 3, 1), 3), (NINE_PATH, 4)):
        assert odd_edge_count(path) == sum(traj(path)) == odd


def test_random_path_invariants_bulk():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
    for _ in range(10_000):
        length = int(rng.integers(1, 11))
        n_verts = int(rng.integers(1, 6))
        p = random_closed_path(n_verts, length, rng)
        steps = traj(p)
        l, m = sum(steps), steps.count(-1)
        assert l + 2 * m == length
        assert sum(tally_edges(p)[2]) == l + m
        assert odd_edge_count(p) == l


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_path_properties_hypothesis(interior):
    verts = tuple([1] + interior + [1])
    steps = traj(verts)
    l, m = sum(steps), steps.count(-1)
    assert l >= 0
    assert l + 2 * m == len(verts) - 1
    assert sum(tally_edges(verts)[2]) == l + m
    assert odd_edge_count(verts) == l


def test_serialization_round_trips():
    t = trajectory_from_string("UUDU")
    assert t == (1, 1, -1, 1) and trajectory_to_string(t) == "UUDU"
    with pytest.raises(ValueError):
        trajectory_from_string("UXD")


def test_closed_path_validation():
    # the gluing refuses rows that are no closed path of >= 2 steps, with the
    # error of the first failing pair
    loop = np.array([(1, 2, 1)])
    with pytest.raises(ValueError, match="not closed"):
        glue_paths(np.array([(1, 2, 1), (1, 2, 2)]), np.array([(1, 2, 1), (1, 2, 1)]))
    with pytest.raises(ValueError, match="not closed"):
        glue_paths(loop, np.array([(2, 1, 1)]))
    with pytest.raises(ValueError, match="share no edge"):
        glue_paths(np.array([(1, 3, 1), (1, 2, 2)]), np.array([(1, 2, 1), (1, 2, 1)]))
    with pytest.raises(ValueError, match="length >= 2"):
        glue_paths(np.array([(1, 1)]), np.array([(1, 1)]))  # one step
    with pytest.raises(ValueError, match="same length"):
        glue_paths(loop, np.array([(1, 2, 3, 1)]))
