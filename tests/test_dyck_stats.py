import math
from fractions import Fraction

import numpy as np
import pytest

import dwigner.dyck_stats
from dwigner.dyck_stats import (
    _binomial_row,
    ballot_count,
    bounded_path_count,
    class_count_bound_check,
    confined_dyck_count,
    dyck_decompose,
    max_level_distribution,
    tail_bound_check,
)
from dwigner.path_model import (
    count_trajectories,
    enumerate_trajectories,
    trajectory_rows,
    trajectory_to_string,
)
from reference import dyck_failed_checks_mask, levels_of, trajectory_from_string


def _split(steps, rises, starts, ends):
    """(rises, blocks) of one walk from its row of the decomposition arrays:
    the blocks of level 0 and of the levels where a rise ends."""
    levels = [h for h in range(len(rises)) if rises[h] or not h]
    return (tuple(rises[h] for h in levels[1:]),
            tuple(tuple(steps[starts[h]:ends[h]]) for h in levels))


def _decomposition(text):
    steps = trajectory_from_string(text)
    return _split(steps, *(a[0].tolist() for a in dyck_decompose(np.array([steps]))))


def test_decompose_examples():
    rises, blocks = _decomposition("UUDU")
    assert rises == (1, 1)
    assert [len(b) for b in blocks] == [0, 2, 0]
    assert trajectory_to_string(blocks[1]) == "UD"

    rises, blocks = _decomposition("UUDDUD")
    assert rises == () and blocks == (trajectory_from_string("UUDDUD"),)

    rises, blocks = _decomposition("UU")
    assert rises == (2,) and [len(b) for b in blocks] == [0, 0]


def test_decompose_roundtrip_exhaustive():
    for total in range(1, 15):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            for rows in trajectory_rows(m, l):
                arrays = (a.tolist() for a in dyck_decompose(rows))
                for steps, *row in zip(rows.tolist(), *arrays):
                    rises, blocks = _split(steps, *row)
                    rebuilt = list(blocks[0])
                    for rise, block in zip(rises, blocks[1:]):
                        rebuilt += [1] * rise + list(block)
                    assert rebuilt == steps
                    assert sum(rises) == l
                    assert sum(len(b) for b in blocks) == 2 * m
                    assert all(r >= 1 for r in rises)
                    assert all(blocks[1:-1])


def reference_dyck_decompose(steps):
    """Rises and blocks by rescanning the remaining heights at every rise."""
    heights = levels_of(steps)
    length = len(steps)
    last_zero = max(t for t in range(length + 1) if heights[t] == 0)
    blocks = [steps[:last_zero]]
    rises = []
    cur_level, cur_time = 0, last_zero
    while cur_time < length:
        down_levels = [heights[t] for t in range(cur_time + 1, length + 1) if steps[t - 1] == -1]
        if not down_levels:
            rises.append(heights[-1] - cur_level)
            blocks.append(())
            break
        level = min(down_levels)
        rises.append(level - cur_level)
        t_first = next(t for t in range(cur_time, length + 1) if heights[t] == level)
        t_last = max(t for t in range(cur_time, length + 1) if heights[t] == level)
        blocks.append(steps[t_first:t_last])
        cur_level, cur_time = level, t_last
    return tuple(rises), tuple(blocks)


def test_decompose_rows_match_rescanning_reference():
    for total in range(1, 17):
        for m in range(0, total // 2 + 1):
            for rows in trajectory_rows(m, total - 2 * m):
                arrays = (a.tolist() for a in dyck_decompose(rows))
                for steps, *row in zip(rows.tolist(), *arrays):
                    assert _split(steps, *row) == reference_dyck_decompose(tuple(steps))


def _decomposition_arrays(rows):
    """The arrays dyck_decompose checks: heights, kept levels, rises, starts, ends."""
    rises, starts, ends = dyck_decompose(rows)
    levels = np.zeros((rows.shape[0], rows.shape[1] + 1), np.int64)
    np.cumsum(rows, axis=1, out=levels[:, 1:])
    kept = ends > starts
    kept[:, 0] = kept[:, -1] = True
    return levels, kept, rises, starts, ends


def _corruptions(rng, rows, levels, kept, rises, starts, ends):
    """(name, rises, starts, ends) triples, each with one kind of error in every row it can."""
    picked = np.arange(len(rows))
    top = rises.shape[1] - 1
    for shift in (1, -1):
        h = rng.integers(0, top + 1, len(rows))
        bad_ends = ends.copy()
        bad_ends[picked, h] = np.clip(ends[picked, h] + shift, 0, rows.shape[1])
        yield f"ends off by {shift}", rises, starts, bad_ends
        follow = starts.copy()
        follow[:, 1:] = bad_ends[:, :-1] + 1
        yield f"ends off by {shift}, starts following", rises, np.minimum(follow, rows.shape[1]), \
            bad_ends
    if top >= 1:
        h = rng.integers(1, top + 1, len(rows))
        zero = rises.copy()
        zero[picked, h] = np.where(kept[picked, h], 0, zero[picked, h])
        yield "zero rise", zero, starts, ends
    if top >= 2:
        h = rng.integers(1, top, len(rows))
        empty = ends.copy()
        empty[picked, h] = np.where(kept[picked, h], starts[picked, h], ends[picked, h])
        yield "empty interior block", rises, starts, empty
    # blocks anywhere, overlapping or reversed
    yield ("random blocks", rises, rng.integers(0, rows.shape[1] + 1, starts.shape),
           rng.integers(0, rows.shape[1] + 1, ends.shape))


def test_row_checks_match_the_mask_reference_on_corrupted_blocks():
    rng = np.random.default_rng(2024)
    fired = np.zeros(4, bool)
    for total in range(1, 13):
        for m in range(0, total // 2 + 1):
            for rows in trajectory_rows(m, total - 2 * m):
                levels, kept, rises, starts, ends = _decomposition_arrays(rows)
                clean = dwigner.dyck_stats._failed_checks(rows, levels, kept, rises, starts, ends)
                assert not clean.any()
                assert not dyck_failed_checks_mask(rows, levels, kept, rises, starts, ends).any()
                for name, r, a, b in _corruptions(rng, rows, levels, kept, rises, starts, ends):
                    got = dwigner.dyck_stats._failed_checks(rows, levels, kept, r, a, b)
                    want = dyck_failed_checks_mask(rows, levels, kept, r, a, b)
                    assert np.array_equal(got, want), (name, m, total)
                    fired |= want.any(axis=0)
    assert fired.all()  # every check failed somewhere


def test_decompose_rows_refuse_rows_that_are_no_class():
    with pytest.raises(ValueError):
        dyck_decompose(np.array([[1, 1], [1, -1]], np.int8))  # two end levels
    with pytest.raises(ValueError):
        dyck_decompose(np.array([[-1, 1]], np.int8))  # dips below zero
    with pytest.raises(ValueError):
        dyck_decompose(np.array([[1, 0]], np.int8))  # not a +-1 step
    rises, starts, ends = dyck_decompose(np.zeros((0, 4), np.int8))
    assert rises.shape == starts.shape == ends.shape == (0, 1)


def test_bounded_count_examples():
    assert bounded_path_count(2, 2, 2) == 1  # only UU
    assert bounded_path_count(4, 2, 2) == 2  # UUDU, UDUU; UUUD exceeds the ceiling
    with pytest.raises(ValueError):
        bounded_path_count(4, 2, 3)
    with pytest.raises(ValueError):
        bounded_path_count(3, 4, 2)  # parity


def test_bounded_equals_ballot_when_ceiling_slack():
    for steps in range(1, 21):
        for end in range(steps % 2, steps + 1, 2):
            assert bounded_path_count(steps, steps, end) == ballot_count(steps, end)


def test_ballot_examples():
    assert ballot_count(4, 2) == 3
    for n in range(1, 9):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert ballot_count(2 * n, 0) == catalan
        assert ballot_count(2 * n, 2 * n) == 1


def test_ballot_sum_identity():
    # summing over end levels gives all nonnegative paths: the central binomial
    for steps in range(1, 17):
        total = sum(ballot_count(steps, end) for end in range(steps % 2, steps + 1, 2))
        assert total == math.comb(steps, steps // 2)


def test_confined_reflection_equals_transfer():
    cases = [(m, ceiling) for m in range(0, 11) for ceiling in range(1, 2 * m + 3)]
    cases += [(60, ceiling) for ceiling in (1, 2, 3, 5, 10, 30, 59, 60, 100)]
    for m, ceiling in cases:
        expected = bounded_path_count(2 * m, ceiling, 0)
        assert confined_dyck_count(m, ceiling) == expected, (m, ceiling)


def test_binomial_row_equals_comb():
    for n in [*range(0, 65), 100, 200, 400, 800, 900, 1800]:
        assert _binomial_row(n) == tuple(math.comb(n, k) for k in range(n + 1)), n


def test_max_level_pmf_examples():
    assert max_level_distribution(1) == {1: Fraction(1)}
    assert max_level_distribution(2) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert max_level_distribution(3) == {1: Fraction(1, 5), 2: Fraction(3, 5), 3: Fraction(1, 5)}


def test_max_level_pmf_matches_enumeration():
    for m in range(1, 8):
        tally = {}
        for x in enumerate_trajectories(m, 0).tolist():
            top = max(levels_of(x))
            tally[top] = tally.get(top, 0) + 1
        total = sum(tally.values())
        pmf = max_level_distribution(m)
        assert sum(pmf.values()) == 1
        assert pmf == {k: Fraction(c, total) for k, c in tally.items()}


def test_max_level_pmf_sums_to_one_exactly():
    for m in (10, 40, 150):
        assert sum(max_level_distribution(m).values()) == 1


def test_class_blocks_independence():
    # equal blocks: P(max <= k) is the square of the single-block CDF
    for m in range(2, 13, 2):
        half = m // 2
        single = max_level_distribution(half)
        joint = max_level_distribution(m, blocks=(half, half))

        def cdf(pmf, k):
            return sum(v for kk, v in pmf.items() if kk <= k)

        for k in range(1, half + 1):
            assert cdf(joint, k) == cdf(single, k) ** 2


def test_max_level_guard():
    with pytest.raises(ValueError):
        max_level_distribution(4000)
    with pytest.raises(ValueError):
        max_level_distribution(4, blocks=(1, 1))


def test_tail_bound_report():
    rep = tail_bound_check([25, 100])
    assert rep["c0"] == 1.0 / 96.0
    for family in ("single", "halves"):
        rows = rep["families"][family]["rows"]
        assert all(math.isfinite(r["q"]) for r in rows)
        spread = rep["families"][family]["spread"][1.0]
        assert spread < 2.0
    # degenerate m=1: the maximum is 1 with probability one, so E[exp(C max)] = e at C = 1
    one = tail_bound_check([1])
    for family in ("single", "halves"):
        (row,) = one["families"][family]["rows"]
        assert row["exp_moments"] == {1.0: pytest.approx(math.e)}


def reference_class_count_bound(s, c0):
    """The class-count report computed on exact rationals throughout."""
    t_even = count_trajectories(s, 0)
    best_c0, failures, prev, monotone = math.inf, [], None, True
    for l in range(0, 2 * s + 1, 2):
        ratio = Fraction(count_trajectories(s - l // 2, l), t_even)
        bound = (l + 1) * math.exp(-c0 * l * l / s)
        if float(ratio) > bound:
            failures.append({"l": l, "ratio": float(ratio), "bound": bound})
        if prev is not None and ratio / (l + 1) > prev:
            monotone = False
        prev = ratio / (l + 1)
        if l >= 2:
            log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
            best_c0 = min(best_c0, (math.log(l + 1) - log_ratio) * s / (l * l))
    return {"s": s, "c0": c0, "pass": not failures, "failures": failures,
            "largest_supported_c0": best_c0, "monotone_normalized": monotone}


@pytest.mark.parametrize("c0", [1.0 / 8.0, 1.0, 3.0])
def test_class_count_bound_equals_rational_reference(monkeypatch, c0):
    # integer cross-multiplication and true division give the rational
    # route's report to the last bit, failures included (c0 = 3 fails)
    monkeypatch.setattr(dwigner.dyck_stats, "CLASS_BOUND_C0", c0)
    for s in (*range(1, 61), 200):
        assert repr(class_count_bound_check(s)) == repr(reference_class_count_bound(s, c0))


def test_class_count_bound():
    r = class_count_bound_check(50)
    assert r["pass"] and not r["failures"]
    assert r["c0"] == 1.0 / 8.0
    assert r["largest_supported_c0"] >= 1.0 / 8.0
    assert r["monotone_normalized"]
    # l = 0 term is an equality with prefactor 1, so c0 only binds for l >= 2
    r1 = class_count_bound_check(1)
    assert r1["pass"]
