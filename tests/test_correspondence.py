import itertools
import math

import numpy as np
import pytest

import dwigner.correspondence
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
    ROW_CHUNK,
    count_trajectories,
    edge_codes,
    enumerate_trajectories,
    trajectory_of,
    trajectory_to_string,
)
from reference import (
    closed_path_tuples,
    edge_keys,
    glue_reference,
    has_marked_origin,
    k_statistic_reference,
    levels_of,
    preimage_census_reference,
    sample_trajectory,
    surgery_reference,
    tally_edges,
    trajectory_from_string,
)

NINE_PATH = (1, 2, 1, 3, 4, 5, 6, 3, 1)


def traj(path):
    """The trajectory of one closed vertex tuple, through a one-row array."""
    return tuple(trajectory_of(np.array([path]))[0].tolist())


def _rotated(paths):
    """(images, shift_k, level_p) of paths of one length, through one array
    call; the first flagged row raises its error."""
    images, shift_k, level_p, error = to_marked_origin(np.array(paths))
    for code in error:
        raise_row_error(code)
    return [tuple(row) for row in images.tolist()], shift_k.tolist(), level_p.tolist()


def _sources(images, shift_k):
    """The vertex tuples :func:`from_marked_origin` returns; a flagged row raises."""
    sources, error = from_marked_origin(np.array(images), np.array(shift_k))
    for code in error:
        raise_row_error(code)
    return [tuple(row) for row in sources.tolist()]


def _multiset(rows, top):
    """edge_multiset rows widened to the edges on labels 1..top."""
    counts = edge_multiset(np.array(rows))
    return np.pad(counts, ((0, 0), (0, top * (top + 1) // 2 - counts.shape[1])))


def test_worked_example():
    (image,), (shift_k,), (level_p,) = _rotated([NINE_PATH])
    assert image == (4, 5, 6, 3, 1, 2, 1, 3, 4)
    assert level_p == 1
    image_traj = traj(image)
    assert image_traj[-1] == 1
    assert has_marked_origin(image, image_traj)
    assert (image_traj.count(-1), sum(image_traj)) == (2, 4)
    counts = edge_multiset(np.array([image, NINE_PATH]))
    assert (counts[0] == counts[1]).all()
    assert _sources([image], [shift_k]) == [NINE_PATH]


def test_precondition_failures():
    last_up, no_odd = np.array([(1, 2, 3, 1)]), np.array([(1, 2, 1)])  # no odd edge: l = 0
    assert to_marked_origin(last_up)[3].tolist() == [1]
    assert to_marked_origin(no_odd)[3].tolist() == [2]
    with pytest.raises(ValueError, match="last step up"):
        _rotated([(1, 2, 3, 1)])
    with pytest.raises(ValueError, match="no odd edge"):
        _rotated([(1, 2, 1)])


def _rotate(path, r):
    return tuple(_rotate_rows(np.array([path]), [r])[0].tolist())


def test_identity_rotation():
    # rotating by zero steps is the identity on any closed path
    assert _rotate(NINE_PATH, 0) == NINE_PATH


def test_rotation_matches_list_reference():
    base = list(NINE_PATH[:-1])
    for r in range(-9, 18):
        k = r % len(base)
        assert _rotate(NINE_PATH, r) == tuple(base[k:] + base[:k] + [base[k]])


def test_edge_multiset_is_a_copy_of_the_tally():
    # row r, column c: the traversals of the edge of code c in path r, as
    # the dict tally counts them; the width covers every edge on the labels
    assert edge_multiset(np.array([NINE_PATH])).shape == (1, 21)
    for length in range(1, 7):
        paths = closed_path_tuples(length, 4)
        rows = np.array(paths)
        counts = edge_multiset(rows)
        assert counts.shape == (len(paths), rows.max() * (rows.max() + 1) // 2)
        for path, row, codes in zip(paths, counts, edge_codes(rows)):
            by_code = dict(zip(codes.tolist(), edge_keys(path)))
            assert {by_code[c]: n for c, n in enumerate(row.tolist()) if n} == tally_edges(path)[1]
    assert edge_multiset(np.empty((0, 3), np.int8)).shape == (0, 0)


def test_from_marked_origin_rejects_inconsistent_pairs():
    (image,), _, _ = _rotated([NINE_PATH])
    # shift 1 rotates to a last-step-up walk, which no source can produce
    with pytest.raises(ValueError):
        _sources([image], [1])
    for shift_k in (99, -1, np.iinfo(np.int64).max, np.iinfo(np.int64).min):
        with pytest.raises(ValueError, match="shift_k outside"):
            _sources([image], [shift_k])


def test_out_of_range_shifts_get_error_code_3_without_raising():
    (image,), (shift_k,), _ = _rotated([NINE_PATH])
    length = len(NINE_PATH) - 1
    shifts = np.array([-1, shift_k, length + 3])
    sources, error = from_marked_origin(np.array([image] * 3), shifts)
    assert error.tolist() == [3, 0, 3]
    assert tuple(sources[1].tolist()) == NINE_PATH
    # int8 shifts on rows longer than 127 steps: the modulus is taken in intp
    long_path = (1, 2) * 70 + NINE_PATH
    (image,), (shift_k,), _ = _rotated([long_path])
    sources, error = from_marked_origin(np.array([image] * 2),
                                        np.array([-1, shift_k], dtype=np.int8))
    assert error.tolist() == [3, 0]
    assert tuple(sources[1].tolist()) == long_path


def test_same_image_different_shift_is_another_source():
    # the image alone does not determine the source: distinct shifts invert
    # to distinct admissible paths with the same image
    (image,), (shift_k,), _ = _rotated([NINE_PATH])
    (other,) = _sources([image], [shift_k + 1])
    assert other != NINE_PATH
    (image2,), (shift_k2,), _ = _rotated([other])
    assert image2 == image
    assert shift_k2 == shift_k + 1


def _admissible(path):
    steps = traj(path)
    return sum(steps) > 0 and steps[-1] == -1


def _admissible_paths(length, max_vertices):
    paths = closed_path_tuples(length, max_vertices)
    steps = trajectory_of(np.array(paths))
    keep = (steps.sum(axis=1) > 0) & (steps[:, -1] == -1)
    return [path for path, kept in zip(paths, keep) if kept]


def test_exhaustive_roundtrip_small():
    seen = {}
    checked = 0
    for length in range(1, 9):
        paths = _admissible_paths(length, 4)
        if not paths:
            continue
        checked += len(paths)
        images, shifts, levels = _rotated(paths)
        assert _sources(images, shifts) == paths
        assert (_multiset(images, 4) == _multiset(paths, 4)).all()
        src_trajs = trajectory_of(np.array(paths)).tolist()
        img_trajs = trajectory_of(np.array(images)).tolist()
        for path, image, shift_k, level_p, src_traj, img_traj in zip(
                paths, images, shifts, levels, src_trajs, img_trajs):
            assert img_traj[-1] == 1
            assert has_marked_origin(image, img_traj)
            assert (sum(img_traj), img_traj.count(-1)) == (sum(src_traj), src_traj.count(-1))
            key = (image, shift_k)
            assert key not in seen
            seen[key] = path
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
    keys = edge_keys(path)
    odd = [j for j, key in enumerate(keys, start=1) if keys.count(key) % 2 == 1]
    if not odd:
        raise ValueError("no odd edge")
    j = odd[0]
    level_p = levels_of(traj(path))[j - 1]
    return _rotate(path, j), len(keys) - j, level_p


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
    images, shift_k, _, _ = to_marked_origin(np.array([NINE_PATH]))
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
    pool = [p for length in range(2, 9) for p in _admissible_paths(length, 4)]
    for _ in range(200):
        path = pool[int(rng.integers(0, len(pool)))]
        perm = list(rng.permutation(max(path)) + 1)
        relabeled = tuple(int(perm[v - 1]) for v in path)
        (image1,), shift1, level1 = _rotated([path])
        (image2,), shift2, level2 = _rotated([relabeled])
        assert shift2 == shift1 and level2 == level1
        assert image2 == tuple(int(perm[v - 1]) for v in image1)


def test_random_roundtrip_larger_paths():
    rng = np.random.Generator(np.random.Philox(key=np.array([8, 2], dtype=np.uint64)))
    done = 0
    while done < 1000:
        length = int(rng.integers(2, 11))
        verts = [int(v) + 1 for v in rng.integers(0, 6, length)]
        path = tuple(verts) + (verts[0],)
        if not _admissible(path):
            continue
        images, shifts, _ = _rotated([path])
        assert _sources(images, shifts) == [path]
        done += 1


def _surgery_pairs(walks, p):
    """The (walk, cut) pairs of the rows in the rotated shape for level p,
    walk by walk, found through the reference heights."""
    pairs = []
    for r, steps in enumerate(walks.tolist()):
        heights, l = levels_of(steps), sum(steps)
        if steps[-1] != 1:
            continue
        pairs += [(r, cut) for cut in range(len(steps))
                  if heights[cut] == l + p - 1 and min(heights[cut:]) >= l - 1]
    return pairs


def test_surgery_worked_example():
    x_prime = np.array([trajectory_from_string("UUUUUDDU")])
    (out,) = trajectory_surgery(x_prime, 1, np.array([4]))
    assert out.dtype == np.int8
    assert sum(out) == 6 and (out < 0).sum() == 1  # class (m-p, l+2p) = (1, 6)
    assert trajectory_to_string(out.tolist()) == "UUUUUUUD"


def test_surgery_all_down_steps_consumed():
    # p = m: output is the all-up trajectory
    for m, l in [(1, 2), (2, 2), (2, 4)]:
        walks = enumerate_trajectories(m, l)
        rows, cuts = np.array(_surgery_pairs(walks, m)).T
        out = trajectory_surgery(walks[rows], m, cuts)
        assert (out == 1).all() and out.shape == (len(rows), l + 2 * m)


def test_surgery_bijection_counts():
    # pairs (x', cut) with the rotated-shape conditions biject onto the
    # (m - p, l + 2p) class, for every level p
    for m, l in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 1)]:
        walks = enumerate_trajectories(m, l)
        for p in range(1, m + 1):
            rows, cuts = np.array(_surgery_pairs(walks, p)).T
            out = trajectory_surgery(walks[rows], p, cuts)
            assert (out.sum(axis=1) == l + 2 * p).all()
            assert ((out < 0).sum(axis=1) == m - p).all()
            target = count_trajectories(m - p, l + 2 * p)
            assert len(rows) == target and len(np.unique(out, axis=0)) == target


def test_surgery_rows_match_the_reference_on_every_valid_triple():
    # every (walk, p, cut) in the rotated shape of every class of <= 12 steps,
    # p = 0 included, one row call per class and level
    checked = 0
    for total in range(1, 13):
        for m in range(0, total // 2 + 1):
            walks = enumerate_trajectories(m, total - 2 * m)
            for p in range(0, m + 1):
                pairs = _surgery_pairs(walks, p)
                if not pairs:
                    continue
                rows, cuts = np.array(pairs).T
                got = trajectory_surgery(walks[rows], p, cuts).tolist()
                want = [surgery_reference(tuple(walks[r].tolist()), p, cut) for r, cut in pairs]
                assert [tuple(row) for row in got] == want
                checked += len(pairs)
    assert checked == 3458


def test_surgery_rejects_malformed():
    def surgery(texts, p, cuts):
        return trajectory_surgery(np.array([trajectory_from_string(t) for t in texts]), p,
                                  np.array(cuts))

    with pytest.raises(ValueError, match="end with an up step"):
        surgery(["UUUD"], 1, [0])
    with pytest.raises(ValueError, match="level at cut_time"):
        surgery(["UUDU"], 1, [0])  # level at cut is not l + p - 1
    with pytest.raises(ValueError, match="outside"):
        surgery(["UUDU"], 1, [4])
    with pytest.raises(ValueError, match="dips below l - 1"):
        surgery(["UUUDDDUU"], 2, [3])
    with pytest.raises(ValueError, match="p must be nonnegative"):
        surgery(["UUDU"], -1, [2])
    # the first failing row raises its first failing check
    with pytest.raises(ValueError, match="level at cut_time"):
        surgery(["UUDU", "UUDU", "UUUD"], 1, [2, 0, 0])
    assert surgery(["UUDU", "UUDU"], 1, [2, 2]).tolist() == [[1, 1, 1, 1]] * 2


@pytest.mark.parametrize("reversal, message", [
    ((0, -2, -1, 1, 0, 0), "does not end at l \\+ 2p"),
    ((0, -3, 1, 1, 0, 0), "p fewer down steps"),
    ((0, 1, -1, -1, 0, 0), "first-hitting instant"),
])
def test_each_surgery_sanity_check_fires_alone(monkeypatch, reversal, message):
    # UUUDDU cut at 2 for p = 1 takes its tail from entries 1..3 of the
    # negated reversal; each fake reversal breaks only the named check
    monkeypatch.setattr(np, "flip", lambda rows, axis=None: np.array([reversal]))
    with pytest.raises(AssertionError, match=message):
        trajectory_surgery(np.array([trajectory_from_string("UUUDDU")]), 1, np.array([2]))


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
    loop = np.array([(1, 2, 1)])
    glued = glue_paths(loop, loop)
    assert glued.tolist() == [[1, 2, 1]]
    assert edge_multiset(glued).tolist() == [[0, 2, 0]]

    with pytest.raises(ValueError):
        glue_paths(np.array([(1, 2, 1)]), np.array([(3, 4, 3)]))

    p1, p2 = np.array([(1, 2, 3, 1)]), np.array([(2, 3, 4, 2)])
    glued = glue_paths(p1, p2)
    assert glued.shape == (1, 5)
    # the edges (1,2), (1,3), (2,4) and (3,4) take the codes 1, 3, 7 and 8
    assert edge_multiset(glued).tolist() == [[0, 1, 0, 1, 0, 0, 0, 1, 1, 0]]

    with pytest.raises(ValueError):
        glue_paths(np.array([(1, 2, 1)]), np.array([(1, 2, 3, 1)]))


def test_glue_edge_multiset_contract():
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 4], dtype=np.uint64)))
    done = 0
    while done < 300:
        length = int(rng.integers(2, 7))
        v1 = [int(v) + 1 for v in rng.integers(0, 4, length)]
        v2 = [int(v) + 1 for v in rng.integers(0, 4, length)]
        p1, p2 = tuple(v1) + (v1[0],), tuple(v2) + (v2[0],)
        e1, e2 = _multiset([p1], 4)[0], _multiset([p2], 4)[0]
        if not (e1 & e2).any():
            continue
        glued = glue_paths(np.array([p1]), np.array([p2]))
        assert glued.shape == (1, 2 * length - 1)
        # the union minus two traversals of p1's first edge that p2 shares
        union = e1 + e2
        codes1 = edge_codes(np.array([p1]))[0]
        union[codes1[e2[codes1] > 0][0]] -= 2
        assert (_multiset(glued, 4)[0] == union).all()
        done += 1


def test_glue_rows_match_the_reference_on_every_correlated_pair():
    # every correlated ordered pair of closed paths with (L, V) <= (4, 4),
    # row by row; V = 4 holds every path on fewer labels
    orientations, loops = set(), 0
    for length in (2, 3, 4):
        paths = [combo + (combo[0],) for combo in itertools.product(range(1, 5), repeat=length)]
        keys = [set(edge_keys(p)) for p in paths]
        pairs = [(a, b) for a, ka in zip(paths, keys) for b, kb in zip(paths, keys)
                 if not ka.isdisjoint(kb)]
        got = glue_paths(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
        assert got.shape == (len(pairs), 2 * length - 1)
        assert [tuple(row) for row in got.tolist()] == [glue_reference(a, b) for a, b in pairs]
        for a, b in pairs:
            t1 = next(t for t, key in enumerate(edge_keys(a)) if key in edge_keys(b))
            t2 = edge_keys(b).index(edge_keys(a)[t1])
            loops += a[t1] == a[t1 + 1]
            orientations.add((b[t2], b[t2 + 1]) == (a[t1], a[t1 + 1]))
    assert orientations == {True, False} and loops > 0


def test_k_statistic_examples():
    def k(text, window):
        return k_statistic(np.array([trajectory_from_string(text)]), window).tolist()

    assert k("UUDD", 3) == [2]
    assert k("UUUU", 2) == [4]
    for s in ("UUDD", "UDUD", "UUDU"):
        assert k(s, 1) == [len(s) + 1]
    with pytest.raises(ValueError):
        k("UD", 4)
    rows = np.array([trajectory_from_string(s) for s in ("UUDD", "UUUU", "UDUD")])
    assert k_statistic(rows, 3).tolist() == [2, 3, 2]


def test_k_statistic_rows_match_the_reference_on_every_walk():
    # every walk of <= 12 steps at every window
    for total in range(0, 13):
        for m in range(0, total // 2 + 1):
            walks = enumerate_trajectories(m, total - 2 * m)
            for window in range(1, total + 2):
                want = [k_statistic_reference(tuple(w), window) for w in walks.tolist()]
                assert k_statistic(walks, window).tolist() == want


def test_preimage_bound_census():
    for length in (2, 3):
        report = preimage_bound_check(length, 3)
        assert report["pass"], report["violations"][:3]
        assert report["correlated_pairs"] > 0
        # K >= 1 whenever a window fits, so a single-preimage path is safe
        assert report["max_ratio"] <= 1.0
    with pytest.raises(ValueError):
        preimage_bound_check(6, 3)


def test_preimage_bound_census_matches_the_reference():
    for length, vertices in ((2, 1), (2, 3), (3, 3), (3, 4), (4, 3)):
        assert preimage_bound_check(length, vertices) == \
            preimage_census_reference(length, vertices)


def test_preimage_bound_census_does_not_depend_on_the_block(monkeypatch):
    want = preimage_bound_check(4, 3)
    for block in (1, 7, 100):
        monkeypatch.setattr(dwigner.correspondence, "ROW_CHUNK", block)
        assert preimage_bound_check(4, 3) == want


def test_mean_k_statistic_bounded_on_grid():
    # empirical mean of K over uniform draws stays bounded by a small
    # multiple of l + sqrt(L_o) across the class grid
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    worst = 0.0
    for m in (20, 100, 200):
        for l in (0, 12, 40):
            total = l + 2 * m
            window = total // 2 + 1
            draws = np.array([sample_trajectory(m, l, rng) for _ in range(60)])
            mean = np.mean(k_statistic(draws, window))
            worst = max(worst, mean / (l + math.sqrt(total)))
    assert worst <= 2.0


def test_sample_trajectory_uniform_on_small_class():
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 7], dtype=np.uint64)))
    counts = {}
    draws = 3000
    for _ in range(draws):
        s = trajectory_to_string(sample_trajectory(1, 2, rng))
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) == {"UUUD", "UUDU", "UDUU"}
    for c in counts.values():
        # 4 sigma binomial band around draws/3
        assert abs(c - draws / 3) <= 4 * math.sqrt(draws * (1 / 3) * (2 / 3))


def test_sample_trajectory_validity():
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 1], dtype=np.uint64)))
    for m, l in [(5, 0), (3, 4), (0, 6)]:
        x = sample_trajectory(m, l, rng)
        assert isinstance(x, tuple) and set(x) <= {-1, 1}
        assert min(levels_of(x)) == 0
        assert sum(x) == l and x.count(-1) == m
