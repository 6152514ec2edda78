import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dwigner import ensembles, experiments, spectral
from dwigner.ensembles import (
    KERNEL_MAX_WORDS,
    KERNEL_MIN_BATCH,
    EnsembleConfig,
    MatrixSample,
    RegimeError,
    _law_draws,
    _philox_words,
    _wigner_stack,
    regime_of,
    sample_batch,
    sample_deformed,
    sample_wigner,
)
from dwigner.experiments import ExperimentConfig, run_spectrum_census
from dwigner.moment_oracle import MomentModel, exact_trace_expectation
from dwigner.spectral import eigenvalues
from reference import wigner_stack_reference


def make_config(**kwargs):
    defaults = dict(n=4, sigma=1.0, theta=2.0, law="gaussian",
                    symmetry="complex", master_seed=42)
    defaults.update(kwargs)
    return EnsembleConfig.create(**defaults)


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_one_by_one_is_real_and_symmetric(law, symmetry):
    cfg = make_config(n=1, law=law, symmetry=symmetry)
    w = sample_wigner(cfg, 0)
    assert w.entries.shape == (1, 1)
    assert w.entries[0, 0].imag == 0.0 if np.iscomplexobj(w.entries) else True
    assert w.is_hermitian()


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_hermitian_closure_bit_exact(law, symmetry):
    cfg = make_config(n=17, law=law, symmetry=symmetry)
    w = sample_wigner(cfg, 3)
    assert np.array_equal(w.entries, w.entries.conj().T)
    assert np.all(np.isfinite(w.entries.real)) and np.all(np.isfinite(np.imag(w.entries)))
    assert np.all(np.diag(w.entries).imag == 0) if np.iscomplexobj(w.entries) else True


def test_reproducibility_and_independence_of_order():
    cfg = make_config(n=12)
    a = sample_wigner(cfg, 5).entries
    # drawing other indices in between must not perturb index 5
    sample_wigner(cfg, 0)
    sample_wigner(cfg, 99)
    b = sample_wigner(cfg, 5).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_wigner(cfg, 6).entries)
    other_seed = make_config(n=12, master_seed=43)
    assert not np.array_equal(a, sample_wigner(other_seed, 5).entries)


def _reference_wigner(cfg, sample_index):
    """Per-draw reference: a fresh Philox keyed by (seed, index), one draw
    call for the off-diagonal components and one for the diagonal, the
    uniform law through ``Generator.uniform``."""
    key = np.array([cfg.master_seed & 2**64 - 1, sample_index & 2**64 - 1], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))

    def draw(size, std):
        if cfg.law == "gaussian":
            return std * rng.standard_normal(size)
        if cfg.law == "rademacher":
            return std * (2.0 * rng.integers(0, 2, size) - 1.0)
        return rng.uniform(-std * math.sqrt(3.0), std * math.sqrt(3.0), size)

    n = cfg.n
    n_off = n * (n - 1) // 2
    if cfg.is_complex:
        parts = draw(2 * n_off, cfg.sigma / math.sqrt(2.0))
        w = np.zeros((n, n), dtype=np.complex128)
        w[np.triu_indices(n, 1)] = parts[:n_off] + 1j * parts[n_off:]
    else:
        w = np.zeros((n, n), dtype=np.float64)
        w[np.triu_indices(n, 1)] = draw(n_off, cfg.sigma)
    w = w + w.conj().T
    w[np.diag_indices(n)] = draw(n, cfg.diag_sigma)
    return w


@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_sample_batch_bit_equal_to_per_draw_reference(law, symmetry):
    # n = 2 and 3 (real) draw an odd number of off-diagonal components, which
    # leaves half of a uint32 buffered; indices past 2**32 and 2**63 and a
    # negative seed exercise the 64-bit key words. The same indices at the head
    # of a batch of KERNEL_MIN_BATCH + 4 take short Rademacher and uniform
    # streams from the vectorized kernel; n = 6, 8, 9 and 11 put every law and
    # symmetry on both sides of KERNEL_MAX_WORDS (complex Rademacher: kernel up
    # to n = 8; complex uniform: up to 5; real uniform: up to 7; real
    # Rademacher: up to 10).
    indices = [0, 17, 2**32 + 3, 2**63 + 11]
    batch = indices + list(range(1000, 1000 + KERNEL_MIN_BATCH))
    for n in (1, 2, 3, 5, 6, 8, 9, 11):
        for seed in (42, -9):
            for diag_sigma in (None, 0.37):
                cfg = make_config(n=n, law=law, symmetry=symmetry, master_seed=seed,
                                  sigma=1.3, diag_sigma=diag_sigma)
                stack = sample_batch(cfg, indices)
                assert stack.shape == (len(indices), n, n)
                in_batch = sample_batch(cfg, batch)[: len(indices)]
                for entries, batched, i in zip(stack, in_batch, indices):
                    w = _reference_wigner(cfg, i)
                    m = w / math.sqrt(n) + cfg.theta / n
                    assert entries.dtype == m.dtype
                    assert entries.tobytes() == m.tobytes()
                    assert batched.tobytes() == m.tobytes()
                    assert sample_deformed(cfg, i).entries.tobytes() == m.tobytes()
                    assert sample_wigner(cfg, i).entries.tobytes() == w.tobytes()


def test_philox_words_equal_random_raw():
    # the kernel against numpy's Philox keyed directly (not through the state
    # setter), on both sides of a block boundary and past KERNEL_MAX_WORDS
    indices = [0, 2**32 + 1, 2**63 + 11, 2**64 - 1, -3]
    for seed in (0, -9, 2**70 + 3, -(2**63)):
        for k in range(1, KERNEL_MAX_WORDS + 6):
            words = _philox_words(seed, indices, k)
            assert words.dtype == np.uint64 and words.shape == (len(indices), k)
            for row, i in zip(words, indices):
                key = np.array([seed & 2**64 - 1, i & 2**64 - 1], dtype=np.uint64)
                assert np.array_equal(row, np.random.Philox(key=key).random_raw(k))


@pytest.mark.parametrize("law, symmetry, n", [
    ("rademacher", "complex", 8), ("rademacher", "real", 10),
    ("uniform-symmetric", "complex", 5), ("uniform-symmetric", "real", 7),
])
def test_index_bytes_do_not_depend_on_the_batch_at_the_crossover(law, symmetry, n):
    # the largest n whose stream still fits in KERNEL_MAX_WORDS words: batches
    # of 1 and 7 take the per-index loop, a batch of 2,048 the kernel
    cfg = make_config(n=n, law=law, symmetry=symmetry, master_seed=-9)
    i = 2**63 + 11
    alone = sample_deformed(cfg, i).entries.tobytes()
    assert sample_batch(cfg, [i])[0].tobytes() == alone
    assert sample_batch(cfg, range(i - 3, i + 4))[3].tobytes() == alone
    assert sample_batch(cfg, range(i - 1000, i + 1048))[1000].tobytes() == alone


def _signed_zero_draws(law_draws):
    """``_law_draws`` with every third draw replaced by -0.0 and every third
    from the second on by +0.0."""
    def patched(*args):
        draws = law_draws(*args)
        draws[:, 0::3] = -0.0
        draws[:, 1::3] = 0.0
        return draws
    return patched


@pytest.mark.parametrize("zeros", [False, True], ids=["draws", "signed-zero-draws"])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform-symmetric"])
@pytest.mark.parametrize("symmetry", ["complex", "real"])
def test_wigner_stack_bit_equal_to_the_mirror_sum(monkeypatch, law, symmetry, zeros):
    # the in-place fill against the mirror sum conj(w^T) + w, sign bits
    # included: tobytes compares -0.0 and +0.0 as different. Three indices
    # take the per-index loop; at n <= 4 a batch of KERNEL_MIN_BATCH indices
    # also takes the Philox kernel for the Rademacher and uniform laws.
    if zeros:
        monkeypatch.setattr(ensembles, "_law_draws", _signed_zero_draws(_law_draws))
    for n in (1, 2, 4, 37, 300):
        cfg = make_config(n=n, law=law, symmetry=symmetry, sigma=1.3, diag_sigma=0.37)
        batches = [[0, 17, 2**63 + 11]]
        if n <= 4:
            batches.append(range(1000, 1000 + KERNEL_MIN_BATCH))
        for indices in batches:
            got, want = _wigner_stack(cfg, indices), wigner_stack_reference(cfg, indices)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# Peak of the memory that numpy and Python allocate while one complex n = 300
# Gaussian draw is sampled: the draws (n**2 float64: n (n - 1) off-diagonal
# components and n diagonal ones, 720,000 bytes) and the stack (n**2
# complex128, 1,440,000 bytes) are the only arrays of size n**2; the fill
# allocates no more than views and scalars, which a 64 KiB margin covers.
STACK_PEAK_N = 300
STACK_PEAK_BOUND = STACK_PEAK_N**2 * (8 + 16) + 64 * 1024


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wigner_stack_peak_memory_is_the_draws_and_one_stack():
    cfg = make_config(n=STACK_PEAK_N)
    _wigner_stack(cfg, (0,))
    peak = _traced_peak(lambda: _wigner_stack(cfg, (1,)))
    assert peak <= STACK_PEAK_BOUND, peak


def test_census_draw_peak_memory_is_the_draws_and_one_stack():
    # One census draw at n = 300: sampling holds the draws and the stack;
    # the draws are freed when the sampler returns, and the census scales,
    # reflects and reduces the stack in place. What the reduction adds (the
    # two-stage workspace, 0.34 MB at n = 300, and vectors of size n) stays
    # below the draws, so the bound on the sampler holds for the whole draw.
    cfg = ExperimentConfig(base=make_config(n=STACK_PEAK_N), n_samples=1)
    run_spectrum_census(cfg)  # loads the LAPACK routines before tracing
    peak = _traced_peak(lambda: run_spectrum_census(cfg))
    assert peak <= STACK_PEAK_BOUND, peak


def _band_and_workspace_bytes(n: int) -> int:
    """Bytes of the band of one complex n x n draw and of the workspace of
    its second stage, as the stage's own query sizes it."""
    band = spectral._band(np.eye(n, dtype=np.complex128))
    workspace = spectral._hb2st_workspace(spectral._lapack_routines()["zhetrd_hb2st"], n,
                                          band.shape[1] - 1)
    return band.nbytes + sum(a.nbytes for a in workspace)


def test_pipelined_census_peak_memory_is_one_draw_and_one_band():
    # A census of three complex n = 300 draws: while the calling thread
    # samples draw i, the helper thread may still hold the band of draw i - 1
    # (n (kd + 1) complex128, 81,600 bytes at kd = 16) and the workspace of
    # its second stage. No second n x n array is alive at any time.
    bound = STACK_PEAK_BOUND + _band_and_workspace_bytes(STACK_PEAK_N)
    cfg = ExperimentConfig(base=make_config(n=STACK_PEAK_N), n_samples=3)
    run_spectrum_census(cfg)  # loads the LAPACK routines before tracing
    peak = _traced_peak(lambda: run_spectrum_census(cfg))
    assert peak <= bound, (peak, bound)


def test_pipelined_census_without_lapack_symbols_holds_one_draw_and_one_matrix(monkeypatch):
    # Without the LAPACK symbols the band that crosses to the helper thread
    # is W itself (n**2 complex128, 1,440,000 bytes at n = 300), which the
    # helper shifts by theta/n in place for the second spectrum: beside the
    # draw that the calling thread samples, no other n x n array is alive.
    # What the helper adds is the Hermitian check of eigenvalues, whose own
    # peak is traced here.
    cfg = ExperimentConfig(base=make_config(n=STACK_PEAK_N), n_samples=3)
    w = MatrixSample(entries=sample_wigner(cfg.base, 0).entries)
    bound = STACK_PEAK_BOUND + STACK_PEAK_N**2 * 16 + _traced_peak(w.is_hermitian)
    monkeypatch.setattr(spectral, "_lapack_routines", lambda: None)
    run_spectrum_census(cfg)
    peak = _traced_peak(lambda: run_spectrum_census(cfg))
    assert peak <= bound, (peak, bound)


def test_census_on_four_workers_holds_at_most_four_draws(monkeypatch):
    # With workers > 1 each pool thread runs whole draws, so at most four
    # draws are alive at n = 64: each the sampler's arrays, a band and the
    # second-stage workspace (219,392 bytes). Beyond them every sample keeps
    # only small objects (its row, its records and its pool future, under
    # 4 KiB). A second stage slowed by 5 ms must not let the first stage's
    # bands pile up, one per sample.
    n, samples, workers = 64, 96, 4
    bound = workers * (n**2 * (8 + 16) + 64 * 1024 + _band_and_workspace_bytes(n)) \
        + samples * 4 * 1024
    band_spectra = experiments.band_spectra
    monkeypatch.setattr(experiments, "band_spectra",
                        lambda *args: time.sleep(0.005) or band_spectra(*args))
    cfg = ExperimentConfig(base=make_config(n=n), n_samples=samples, workers=workers)
    run_spectrum_census(replace(cfg, n_samples=1))  # loads the LAPACK routines before tracing
    peak = _traced_peak(lambda: run_spectrum_census(cfg))
    assert peak <= bound, (peak, bound)


def test_eigenvalues_draw_peak_memory_is_the_draws_and_one_stack():
    # One draw of fluctuations or trace-growth at n = 300: eigenvalues
    # reduces the sampled stack in place, so the bound on the sampler holds
    # for the whole draw, as it does for the census.
    cfg = make_config(n=STACK_PEAK_N)
    eigenvalues(sample_deformed(cfg, 0))  # loads the LAPACK routines before tracing
    peak = _traced_peak(lambda: eigenvalues(sample_deformed(cfg, 1)))
    assert peak <= STACK_PEAK_BOUND, peak


def test_kernel_path_leaves_numpy_random_unloaded():
    # the per-index loop is the only user of numpy.random, whose first import
    # adds about 6 MB to the peak RSS of a run
    script = (
        "import sys; from dwigner.ensembles import EnsembleConfig, sample_batch; "
        "before = 'numpy.random' in sys.modules; "
        "cfg = EnsembleConfig.create(n=4, sigma=1.0, theta=2.0, law='rademacher'); "
        "sample_batch(cfg, range(2048)); "
        "print(before, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert out == ["False", "False"]


def test_rademacher_draws_equal_bounded_integers():
    # the signs are read from raw Philox words; they must equal
    # 2 * integers(0, 2, width) - 1 drawn from the same fresh state, for odd
    # widths (half of the last word unused) and even ones, negative seeds and
    # indices past 2**32 and 2**63
    indices = [0, 5, 2**32 + 3, 2**63 + 11]
    for seed in (42, -9, -(2**63)):
        cfg = make_config(law="rademacher", master_seed=seed)
        for width in range(1, 66):
            draws = _law_draws(cfg, indices, ((width, 1.0),))
            assert draws.shape == (len(indices), width)
            for row, i in zip(draws, indices):
                key = np.array([seed & 2**64 - 1, i & 2**64 - 1], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                assert np.array_equal(row, 2 * rng.integers(0, 2, width) - 1)


def test_deformed_theta_zero_is_scaled_wigner():
    cfg = make_config(n=6, theta=0.0)
    w = sample_wigner(cfg, 2)
    m = sample_deformed(cfg, 2)
    assert np.array_equal(m.entries, w.entries / math.sqrt(6))


def test_deformed_is_hermitian():
    cfg = make_config(n=9, law="uniform-symmetric")
    assert sample_deformed(cfg, 4).is_hermitian()


def test_deformed_trace_square_expectation_is_seven():
    # n=3, sigma=diag_sigma=1, theta=2: E[Tr M^2] = (n-1) sigma^2 + diag^2 + theta^2 = 7
    cfg = make_config(n=3, theta=2.0)
    model = MomentModel.from_config(cfg)
    assert exact_trace_expectation(3, 2, model, 2.0) == pytest.approx(7.0, rel=1e-12)


def test_regime_classification():
    reg = regime_of(2.0, 1.0)
    assert reg.label == "supercritical"
    assert reg.rho_theta == pytest.approx(2.5)
    assert reg.sigma_theta == pytest.approx(math.sqrt(3) / 2)

    crit = regime_of(1.0, 1.0)
    assert crit.label == "critical"
    assert crit.rho_theta == pytest.approx(2.0)

    assert regime_of(0.5, 1.0).label == "subcritical"


def test_regime_errors():
    with pytest.raises(RegimeError):
        _ = regime_of(0.0, 1.0).rho_theta
    with pytest.raises(RegimeError):
        _ = regime_of(0.5, 1.0).sigma_theta
    with pytest.raises(RegimeError):
        _ = regime_of(1.0, 1.0).sigma_theta
    with pytest.raises(ValueError):
        regime_of(1.0, 0.0)


def test_empirical_entry_moments_n50():
    # 1e5 draws at n=50: |W_12|^2 mean within 4 SE of sigma^2, odd moments of
    # the components within 4 SE of 0, component variance within 4 SE of 1/2.
    cfg = make_config(n=50, law="gaussian", master_seed=2024)
    draws = 100_000
    # slices of _wigner_stack are bit-equal to sample_wigner of their index
    w12 = np.concatenate([_wigner_stack(cfg, range(start, start + 50))[:, 0, 1]
                          for start in range(0, draws, 50)])
    mod2 = np.abs(w12) ** 2
    se = np.std(mod2, ddof=1) / math.sqrt(draws)
    assert abs(mod2.mean() - 1.0) <= 4 * se

    for comp in (w12.real, w12.imag):
        for power in (1, 3):
            vals = comp**power
            se = np.std(vals, ddof=1) / math.sqrt(draws)
            assert abs(vals.mean()) <= 4 * se
        sq = comp**2
        se = np.std(sq, ddof=1) / math.sqrt(draws)
        assert abs(sq.mean() - 0.5) <= 4 * se


def test_validation_errors():
    with pytest.raises(ValueError):
        make_config(n=0)
    with pytest.raises(ValueError):
        make_config(sigma=-1.0)
    with pytest.raises(ValueError):
        make_config(theta=-0.1)
    with pytest.raises(ValueError, match="unknown entry law 'poisson'"):
        make_config(law="poisson")


@pytest.mark.parametrize("field, bad, message", [
    ("n", 0, "n must be >= 1"),
    ("sigma", -1.0, "sigma must be positive"),
    ("theta", -1.0, "theta must be nonnegative"),
    ("diag_sigma", 0.0, "diag_sigma must be positive"),
    ("symmetry", "bogus", "unknown symmetry 'bogus'"),
    ("law", "poisson", "unknown entry law 'poisson'"),
])
def test_replace_rejects_a_bad_value_of_every_field(field, bad, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        replace(make_config(), **{field: bad})


def test_replace_to_real_samples_as_create_does():
    replaced = replace(make_config(n=6), symmetry="real")
    created = make_config(n=6, symmetry="real")
    assert replaced == created and not replaced.is_complex
    for index in range(3):
        assert sample_wigner(replaced, index).entries.tobytes() == \
            sample_wigner(created, index).entries.tobytes()
    assert MomentModel.from_config(replaced) == MomentModel.from_config(created)


@pytest.mark.parametrize("name", ["sigma", "theta", "diag_sigma"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
        make_config(**{name: bad})


def test_diag_sigma_default_and_override():
    cfg = make_config(n=5)
    assert cfg.diag_sigma == cfg.sigma
    cfg2 = make_config(n=5, diag_sigma=0.25)
    assert cfg2.diag_sigma == 0.25
