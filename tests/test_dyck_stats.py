import math
from fractions import Fraction

import pytest

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
    Trajectory,
    enumerate_trajectories,
    trajectory_from_string,
    trajectory_to_string,
)


def test_decompose_examples():
    d = dyck_decompose(trajectory_from_string("UUDU"))
    assert d.p_prime == 2
    assert d.rises == (1, 1)
    assert d.block_lengths == (0, 2, 0)
    assert trajectory_to_string(d.blocks[1]) == "UD"

    pure = trajectory_from_string("UUDDUD")
    d2 = dyck_decompose(pure)
    assert d2.p_prime == 0 and d2.blocks[0].steps == pure.steps

    d3 = dyck_decompose(trajectory_from_string("UU"))
    assert d3.p_prime == 1 and d3.rises == (2,) and d3.block_lengths == (0, 0)


def test_decompose_roundtrip_exhaustive():
    for total in range(1, 15):
        for m in range(0, total // 2 + 1):
            l = total - 2 * m
            for x in enumerate_trajectories(m, l):
                d = dyck_decompose(x)
                assert d.reconstruct().steps == x.steps
                assert d.end_level == l
                assert sum(d.block_lengths) == 2 * m
                assert all(r >= 1 for r in d.rises)


def reference_dyck_decompose(x):
    """Rises and blocks by rescanning the remaining heights at every rise."""
    heights = x.levels()
    length = x.length
    last_zero = max(t for t in range(length + 1) if heights[t] == 0)
    blocks = [Trajectory(x.steps[:last_zero])]
    rises = []
    cur_level, cur_time = 0, last_zero
    while cur_time < length:
        down_levels = [heights[t] for t in range(cur_time + 1, length + 1) if x.steps[t - 1] == -1]
        if not down_levels:
            rises.append(x.end_level - cur_level)
            blocks.append(Trajectory(()))
            break
        level = min(down_levels)
        rises.append(level - cur_level)
        t_first = next(t for t in range(cur_time, length + 1) if heights[t] == level)
        t_last = max(t for t in range(cur_time, length + 1) if heights[t] == level)
        blocks.append(Trajectory(x.steps[t_first:t_last]))
        cur_level, cur_time = level, t_last
    return tuple(rises), tuple(blocks)


def test_decompose_matches_rescanning_reference():
    for total in range(1, 17):
        for m in range(0, total // 2 + 1):
            for x in enumerate_trajectories(m, total - 2 * m):
                d = dyck_decompose(x)
                assert (d.rises, d.blocks) == reference_dyck_decompose(x)


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
        for x in enumerate_trajectories(m, 0):
            top = max(x.levels())
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


def test_class_count_bound():
    r = class_count_bound_check(50)
    assert r["pass"] and not r["failures"]
    assert r["c0"] == 1.0 / 8.0
    assert r["largest_supported_c0"] >= 1.0 / 8.0
    assert r["monotone_normalized"]
    # l = 0 term is an equality with prefactor 1, so c0 only binds for l >= 2
    r1 = class_count_bound_check(1)
    assert r1["pass"]
