import math

import numpy as np
import pytest

from dwigner.correspondence import (
    ROW_ERRORS,
    _rotate_rows,
    edge_multiset,
    from_marked_origin,
    glue_paths,
    k_statistic,
    preimage_bound_check,
    raise_row_error,
    to_marked_origin,
    trajectory_surgery,
    verify_count_identity,
)
from dwigner.path_model import (
    ClosedPath,
    ROW_CHUNK,
    Trajectory,
    count_trajectories,
    enumerate_trajectories,
    trajectory_of,
    trajectory_to_string,
)
from reference import (
    closed_path_tuples,
    has_marked_origin,
    sample_trajectory,
    tally_edges,
    trajectory_from_string,
)

NINE_PATH = ClosedPath(vertices=(1, 2, 1, 3, 4, 5, 6, 3, 1), ambient_n=6)


def _rotated(paths):
    """(images, shift_k, level_p) of paths of one length, through one array
    call; the first flagged row raises its error."""
    images, shift_k, level_p, error = to_marked_origin(np.array([p.vertices for p in paths]))
    for code in error:
        raise_row_error(code)
    return ([ClosedPath(tuple(row), p.ambient_n) for row, p in zip(images.tolist(), paths)],
            shift_k.tolist(), level_p.tolist())


def _sources(images, shift_k):
    """The vertex tuples :func:`from_marked_origin` returns; a flagged row raises."""
    sources, error = from_marked_origin(np.array([p.vertices for p in images]),
                                        np.array(shift_k))
    for code in error:
        raise_row_error(code)
    return [tuple(row) for row in sources.tolist()]


def test_worked_example():
    (image,), (shift_k,), (level_p,) = _rotated([NINE_PATH])
    assert image.vertices == (4, 5, 6, 3, 1, 2, 1, 3, 4)
    assert level_p == 1
    image_traj = trajectory_of(image)
    assert image_traj.steps[-1] == 1
    assert has_marked_origin(image, image_traj)
    assert (image_traj.down_steps, image_traj.end_level) == (2, 4)
    assert edge_multiset(image) == edge_multiset(NINE_PATH)
    assert _sources([image], [shift_k]) == [NINE_PATH.vertices]


def test_precondition_failures():
    last_up, no_odd = np.array([(1, 2, 3, 1)]), np.array([(1, 2, 1)])  # no odd edge: l = 0
    assert to_marked_origin(last_up)[3].tolist() == [1]
    assert to_marked_origin(no_odd)[3].tolist() == [2]
    with pytest.raises(ValueError, match="last step up"):
        _rotated([ClosedPath((1, 2, 3, 1), 3)])
    with pytest.raises(ValueError, match="no odd edge"):
        _rotated([ClosedPath((1, 2, 1), 2)])


def _rotate(path, r):
    return ClosedPath(tuple(_rotate_rows(np.array([path.vertices]), [r])[0].tolist()),
                      path.ambient_n)


def test_identity_rotation():
    # rotating by zero steps is the identity on any closed path
    assert _rotate(NINE_PATH, 0).vertices == NINE_PATH.vertices


def test_rotation_matches_list_reference():
    base = list(NINE_PATH.vertices[:-1])
    for r in range(-9, 18):
        k = r % len(base)
        expected = tuple(base[k:] + base[:k] + [base[k]])
        assert _rotate(NINE_PATH, r) == ClosedPath(expected, NINE_PATH.ambient_n)


def test_edge_multiset_is_a_copy_of_the_tally():
    path = ClosedPath(NINE_PATH.vertices, NINE_PATH.ambient_n)
    counts = edge_multiset(path)
    counts[(1, 2)] = 99
    assert edge_multiset(path) == edge_multiset(NINE_PATH)
    assert edge_multiset(path)[(1, 2)] == 2


def test_from_marked_origin_rejects_inconsistent_pairs():
    (image,), _, _ = _rotated([NINE_PATH])
    # shift 1 rotates to a last-step-up walk, which no source can produce
    with pytest.raises(ValueError):
        _sources([image], [1])
    for shift_k in (99, -1, np.iinfo(np.int64).max, np.iinfo(np.int64).min):
        with pytest.raises(ValueError, match="shift_k outside"):
            _sources([image], [shift_k])


def test_same_image_different_shift_is_another_source():
    # the image alone does not determine the source: distinct shifts invert
    # to distinct admissible paths with the same image
    (image,), (shift_k,), _ = _rotated([NINE_PATH])
    (other,) = _sources([image], [shift_k + 1])
    assert other != NINE_PATH.vertices
    (image2,), (shift_k2,), _ = _rotated([ClosedPath(other, NINE_PATH.ambient_n)])
    assert image2 == image
    assert shift_k2 == shift_k + 1


def _admissible(path):
    traj = trajectory_of(path)
    return traj.end_level > 0 and traj.steps[-1] == -1


def _admissible_paths(length, max_vertices):
    paths = (ClosedPath(verts, max(verts)) for verts in closed_path_tuples(length, max_vertices))
    return [path for path in paths if _admissible(path)]


def test_exhaustive_roundtrip_small():
    seen = {}
    checked = 0
    for length in range(1, 9):
        paths = _admissible_paths(length, 4)
        if not paths:
            continue
        checked += len(paths)
        images, shifts, levels = _rotated(paths)
        assert _sources(images, shifts) == [path.vertices for path in paths]
        for path, image, shift_k, level_p in zip(paths, images, shifts, levels):
            src_traj = trajectory_of(path)
            img_traj = trajectory_of(image)
            assert img_traj.steps[-1] == 1
            assert has_marked_origin(image, img_traj)
            assert (img_traj.end_level, img_traj.down_steps) == (
                src_traj.end_level, src_traj.down_steps)
            assert edge_multiset(image) == edge_multiset(path)
            key = (image.vertices, shift_k)
            assert key not in seen
            seen[key] = path.vertices
            # unmarked origin forces level_p >= 1
            if not has_marked_origin(path, src_traj):
                assert level_p >= 1
            else:
                assert level_p >= 0
    assert checked > 1000


def _reference_to_marked_origin(path):
    # The rotation written step by step: classify, find the first odd edge,
    # read the trajectory heights, rotate.
    if tally_edges(path)[2][-1]:
        raise ValueError("last step up")
    keys = path.edge_keys()
    odd = [j for j, key in enumerate(keys, start=1) if keys.count(key) % 2 == 1]
    if not odd:
        raise ValueError("no odd edge")
    j = odd[0]
    level_p = trajectory_of(path).levels()[j - 1]
    return _rotate(path, j), path.length - j, level_p


def test_one_pass_rotation_matches_reference():
    checked = 0
    for length in range(1, 9):
        paths = _admissible_paths(length, 4)
        if not paths:
            continue
        checked += len(paths)
        for path, *got in zip(paths, *_rotated(paths)):
            image, shift_k, level_p = _reference_to_marked_origin(path)
            assert got == [image, shift_k, level_p]
    assert checked > 1000


def _rows_outputs(verts):
    images, shift_k, level_p, error = to_marked_origin(verts)
    sources, back_error = from_marked_origin(images, shift_k)
    return images, shift_k, level_p, error, sources, back_error


def test_rows_do_not_depend_on_the_batch():
    # a path alone, at both edges of a battery chunk and inside a full one
    # (with a wide-label row in the batch) gives the same outputs
    fill = np.array(closed_path_tuples(8, 5), dtype=np.int8)
    full = np.resize(fill, (ROW_CHUNK, 9))
    full[7] = (1, 2, 3, 4, 5, 6, 7, 9, 1)  # labels past 5 widen the mark words
    for probe in (fill[0], fill[5], fill[-1], fill[1234]):  # admissible and not
        alone = _rows_outputs(probe[None, :])
        for at in (0, ROW_CHUNK - 1, ROW_CHUNK // 2):
            batch = full.copy()
            batch[at] = probe
            for got, want in zip(_rows_outputs(batch), alone):
                assert np.array_equal(got[at], want[0])


def test_rows_flag_the_first_failing_check():
    # each row gets the code of its first failing check, and the code's message
    verts = np.array([(1, 2, 3, 1, 1), (1, 2, 3, 2, 1), (1, 1, 2, 2, 1)])
    assert [ROW_ERRORS[e] for e in to_marked_origin(verts)[3]] == [
        "path has a last step up; the rotation applies to last-step-down paths",
        "path has no odd edge (l = 0)", ""]
    images, shift_k, _, _ = to_marked_origin(np.array([NINE_PATH.vertices]))
    error = from_marked_origin(images.repeat(4, axis=0), np.array([shift_k[0], 1, 99, -1]))[1]
    assert [ROW_ERRORS[e] for e in error] == [
        "", "path has a last step up; the rotation applies to last-step-down paths",
        "shift_k outside [0, L)", "shift_k outside [0, L)"]
    # an admissible source whose own image is another path
    error = from_marked_origin(np.array([(1, 1, 1, 1, 2, 2, 1)]), np.array([0]))[1]
    assert ROW_ERRORS[error[0]] == "inconsistent (image, shift_k): not produced by to_marked_origin"
    with pytest.raises(ValueError, match="inconsistent"):
        raise_row_error(error[0])


def test_roundtrip_commutes_with_relabeling():
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
    pool = [ClosedPath(v, max(v)) for length in range(2, 9)
            for v in closed_path_tuples(length, 4)]
    pool = [p for p in pool if _admissible(p)]
    for _ in range(200):
        path = pool[int(rng.integers(0, len(pool)))]
        perm = list(rng.permutation(path.ambient_n) + 1)
        relabeled = ClosedPath(
            vertices=tuple(int(perm[v - 1]) for v in path.vertices),
            ambient_n=path.ambient_n,
        )
        (image1,), shift1, level1 = _rotated([path])
        (image2,), shift2, level2 = _rotated([relabeled])
        assert shift2 == shift1 and level2 == level1
        assert image2.vertices == tuple(int(perm[v - 1]) for v in image1.vertices)


def test_random_roundtrip_larger_paths():
    rng = np.random.Generator(np.random.Philox(key=np.array([8, 2], dtype=np.uint64)))
    done = 0
    while done < 1000:
        length = int(rng.integers(2, 11))
        verts = [int(v) + 1 for v in rng.integers(0, 6, length)]
        path = ClosedPath(vertices=tuple(verts) + (verts[0],), ambient_n=6)
        if not _admissible(path):
            continue
        images, shifts, _ = _rotated([path])
        assert _sources(images, shifts) == [path.vertices]
        done += 1


def test_surgery_worked_example():
    x_prime = trajectory_from_string("UUUUUDDU")
    out = trajectory_surgery(x_prime, p=1, cut_time=4)
    assert out.end_level == 6 and out.down_steps == 1  # class (m-p, l+2p) = (1, 6)
    assert trajectory_to_string(out.steps) == "UUUUUUUD"


def test_surgery_all_down_steps_consumed():
    # p = m: output is the all-up trajectory
    for m, l in [(1, 2), (2, 2), (2, 4)]:
        for x in enumerate_trajectories(m, l):
            if x.steps[-1] != 1:
                continue
            heights = x.levels()
            for cut in range(x.length):
                if heights[cut] != l + m - 1:
                    continue
                if any(h < l - 1 for h in heights[cut:]):
                    continue
                out = trajectory_surgery(x, m, cut)
                assert out.steps == (1,) * x.length


def test_surgery_bijection_counts():
    # pairs (x', cut) with the rotated-shape conditions biject onto the
    # (m - p, l + 2p) class, for every level p
    for m, l in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 1)]:
        ups = [x for x in enumerate_trajectories(m, l) if x.steps[-1] == 1]
        for p in range(1, m + 1):
            images = set()
            pairs = 0
            for x in ups:
                heights = x.levels()
                for cut in range(x.length):
                    if heights[cut] != l + p - 1:
                        continue
                    if any(h < l - 1 for h in heights[cut:]):
                        continue
                    out = trajectory_surgery(x, p, cut)
                    assert out.end_level == l + 2 * p
                    assert out.down_steps == m - p
                    pairs += 1
                    images.add(out.steps)
            target = count_trajectories(m - p, l + 2 * p)
            assert pairs == target and len(images) == target


def test_surgery_rejects_malformed():
    x = trajectory_from_string("UUUD")  # ends with a down step
    with pytest.raises(ValueError):
        trajectory_surgery(x, 1, 0)
    x2 = trajectory_from_string("UUDU")
    with pytest.raises(ValueError):
        trajectory_surgery(x2, 1, 0)  # level at cut is not l + p - 1


def test_count_identity_examples():
    assert count_trajectories(1, 4) + count_trajectories(0, 6) == 6 == math.comb(6, 1)
    assert verify_count_identity(2, 2)
    assert verify_count_identity(1, 0)
    assert verify_count_identity(3, 0)
    assert count_trajectories(2, 2) + count_trajectories(1, 4) + count_trajectories(0, 6) \
        == math.comb(6, 2)


def test_count_identity_exhaustive():
    for total in range(2, 17, 2):
        for m in range(1, total // 2 + 1):
            assert verify_count_identity(m, total - 2 * m)


def test_count_identity_preconditions():
    with pytest.raises(ValueError):
        verify_count_identity(0, 4)
    with pytest.raises(ValueError):
        verify_count_identity(2, 3)


def test_glue_examples():
    loop = ClosedPath((1, 2, 1), 2)
    glued = glue_paths(loop, loop)
    assert glued.vertices == (1, 2, 1)
    assert glued.length == 2
    assert edge_multiset(glued) == {(1, 2): 2}

    with pytest.raises(ValueError):
        glue_paths(ClosedPath((1, 2, 1), 4), ClosedPath((3, 4, 3), 4))

    p1 = ClosedPath((1, 2, 3, 1), 4)
    p2 = ClosedPath((2, 3, 4, 2), 4)
    glued = glue_paths(p1, p2)
    assert glued.length == 4
    assert edge_multiset(glued) == {(1, 2): 1, (2, 4): 1, (3, 4): 1, (1, 3): 1}

    with pytest.raises(ValueError):
        glue_paths(ClosedPath((1, 2, 1), 2), ClosedPath((1, 2, 3, 1), 3))


def test_glue_edge_multiset_contract():
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 4], dtype=np.uint64)))
    done = 0
    while done < 300:
        length = int(rng.integers(2, 7))
        v1 = [int(v) + 1 for v in rng.integers(0, 4, length)]
        v2 = [int(v) + 1 for v in rng.integers(0, 4, length)]
        p1 = ClosedPath(tuple(v1) + (v1[0],), 4)
        p2 = ClosedPath(tuple(v2) + (v2[0],), 4)
        e1, e2 = edge_multiset(p1), edge_multiset(p2)
        shared = [e for e in e1 if e in e2]
        if not shared:
            continue
        glued = glue_paths(p1, p2)
        assert glued.length == 2 * length - 2
        union = dict(e1)
        for key, c in e2.items():
            union[key] = union.get(key, 0) + c
        first = min(shared, key=lambda e: next(
            t for t, (a, b) in enumerate(zip(p1.vertices, p1.vertices[1:]))
            if tuple(sorted((a, b))) == e))
        union[first] -= 2
        assert edge_multiset(glued) == {k: v for k, v in union.items() if v}
        done += 1


def test_k_statistic_examples():
    assert k_statistic(trajectory_from_string("UUDD"), 3) == 2
    assert k_statistic(trajectory_from_string("UUUU"), 2) == 4
    for s in ("UUDD", "UDUD", "UUDU"):
        x = trajectory_from_string(s)
        assert k_statistic(x, 1) == x.length + 1
    with pytest.raises(ValueError):
        k_statistic(trajectory_from_string("UD"), 4)


def test_preimage_bound_census():
    for length in (2, 3):
        report = preimage_bound_check(length, 3)
        assert report["pass"], report["violations"][:3]
        assert report["correlated_pairs"] > 0
        # K >= 1 whenever a window fits, so a single-preimage path is safe
        assert report["max_ratio"] <= 1.0
    with pytest.raises(ValueError):
        preimage_bound_check(6, 3)


def test_mean_k_statistic_bounded_on_grid():
    # empirical mean of K over uniform draws stays bounded by a small
    # multiple of l + sqrt(L_o) across the class grid
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    worst = 0.0
    for m in (20, 100, 200):
        for l in (0, 12, 40):
            total = l + 2 * m
            window = total // 2 + 1
            mean = np.mean([
                k_statistic(sample_trajectory(m, l, rng), window) for _ in range(60)
            ])
            worst = max(worst, mean / (l + math.sqrt(total)))
    assert worst <= 2.0


def test_sample_trajectory_uniform_on_small_class():
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 7], dtype=np.uint64)))
    counts = {}
    draws = 3000
    for _ in range(draws):
        s = trajectory_to_string(sample_trajectory(1, 2, rng).steps)
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) == {"UUUD", "UUDU", "UDUU"}
    for c in counts.values():
        # 4 sigma binomial band around draws/3
        assert abs(c - draws / 3) <= 4 * math.sqrt(draws * (1 / 3) * (2 / 3))


def test_sample_trajectory_validity():
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 1], dtype=np.uint64)))
    for m, l in [(5, 0), (3, 4), (0, 6)]:
        x = sample_trajectory(m, l, rng)
        assert isinstance(x, Trajectory)
        assert x.end_level == l and x.down_steps == m
