import sys
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import random_density
from reference import _haar_entries, code_rotation, haar_unitary, shelving_pulse
from reference import averaged_coherent_channel as reference_average
from reference import filter_channel as reference_filter_channel
from reference import filter_params as reference_filter_params

import leakbench as lb
from leakbench import SpaceSpec
from leakbench.gatesets import PAULI_X
from leakbench.liouville import vec
import leakbench.noise as noise
from leakbench.noise import (
    QUTRIT,
    RandomStream,
    build_noise_model,
    pcg64_integers,
    pcg64_seeds,
    sample_filter_assignment,
    sample_filter_batch,
    sample_filter_params,
    seated_generators,
)

QUBIT = SpaceSpec(d1=2, d2=0)


# ---------------------------------------------------------------------------
# RandomStream
# ---------------------------------------------------------------------------


def test_stream_reproducible():
    a = RandomStream(1234).generator().normal(size=8)
    b = RandomStream(1234).generator().normal(size=8)
    assert np.array_equal(a, b)


def test_stream_children_independent():
    root = RandomStream(1234)
    a = root.child(1, 2).generator().normal(size=8)
    b = root.child(1, 3).generator().normal(size=8)
    c = root.child(1).generator().normal(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, root.child(1, 2).generator().normal(size=8))


#: Multi-word seeds and key components of one and two 32-bit words; 2^160 + 3
#: has six words, more than SeedSequence's pool of four.
DERIVATION_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**70 + 5, 20260801, 2**160 + 3)
DERIVATION_KEYS = (
    [(m, j, tag) for m in (1, 7, 100) for j in range(3) for tag in (0, 1)]
    + [(2**32, 3, 0), (5, 2**32 + 9, 1), (2**40 + 7, 2**33, 2**64 - 1), (0, 0, 0)]
)


@pytest.mark.parametrize("seed", DERIVATION_SEEDS)
def test_pcg64_states_match_seed_sequence(seed):
    for keys in (DERIVATION_KEYS, [(5,), (2**35,)], [(1, 2, 3, 4, 5, 6)], [()]):
        key_array = np.array(keys, dtype=np.uint64).reshape(len(keys), -1)
        seated = seated_generators(pcg64_seeds(seed, key_array))
        states = [gen.bit_generator.state for gen in seated]
        for state, key in zip(states, keys):
            assert np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state == state
        assert len(states) == len(keys)


#: Odd and even lengths, lengths 0, 1 and 2, and one length per derivation key.
DRAW_LENGTHS = [7, 1, 2, 0, 12, 5, 33, 2, 1, 8, 3, 64, 9, 4, 1, 2, 6, 21, 11, 10, 30, 5]


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("high", [1, 2, 3, 4, 8, 24, 2**31 + 1, 2**33])
@pytest.mark.parametrize("seed", [0, 2**32, 2**70 + 5])
def test_pcg64_integers_match_generator_integers(monkeypatch, seed, high, chunk):
    # With high = 2^31 + 1 about half of the words are rejected, so nearly every
    # row is redrawn by its own Generator; above 2^32 every row is.
    if chunk is not None:
        monkeypatch.setattr(noise, "_DRAW_CHUNK", chunk)
    keys = DERIVATION_KEYS[: len(DRAW_LENGTHS)]
    draws, ends = pcg64_integers(pcg64_seeds(seed, keys), high, DRAW_LENGTHS, states=True)
    assert draws.shape == (len(keys), max(DRAW_LENGTHS))
    for key, row, m, gen in zip(keys, draws, DRAW_LENGTHS, seated_generators(*ends)):
        fresh = RandomStream(seed).child(*key).generator()
        assert np.array_equal(row[:m], fresh.integers(0, high, size=m)) and not row[m:].any()
        # The state after the draws, from which the shots continue.
        assert gen.bit_generator.state == fresh.bit_generator.state
        assert gen.binomial(400, 0.37) == fresh.binomial(400, 0.37)
    assert [a.shape[-1] for a in ends] == [len(keys)] * 3
    plain, no_states = pcg64_integers(pcg64_seeds(seed, keys), high, DRAW_LENGTHS)
    assert np.array_equal(plain, draws) and no_states is None


@pytest.mark.parametrize("seed", DERIVATION_SEEDS)
def test_child_generators_draw_like_fresh_generators(seed):
    root = RandomStream(seed, key=(3,))
    m = 11
    seeds = pcg64_seeds(seed, [root.key + key for key in DERIVATION_KEYS])
    for gen, key in zip(seated_generators(seeds), DERIVATION_KEYS):
        ref = root.child(*key).generator()
        assert np.array_equal(gen.integers(0, 8, size=m), ref.integers(0, 8, size=m))
        # The binomial continues the stream where the integers ended.
        assert gen.binomial(400, 0.37) == ref.binomial(400, 0.37)
    for gen, key in zip(seated_generators(seeds), DERIVATION_KEYS):
        out = np.empty((m, 18))
        gen.standard_normal(out=out)
        assert np.array_equal(out, root.child(*key).generator().standard_normal((m, 18)))


def test_pcg64_states_validation():
    with pytest.raises(ValueError):
        pcg64_seeds(1, [1, 2, 3])
    with pytest.raises(OverflowError):
        pcg64_seeds(1, [[-1]])


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), (None, TypeError)])
def test_a_seed_that_seed_sequence_refuses_is_refused_on_every_path(seed, error):
    # -1 must not wrap to the streams of seed 2^32 - 1, 1.5 truncate to those of seed 1,
    # nor None draw OS entropy: the stream is refused when it is made.
    with pytest.raises(error):
        RandomStream(seed)
    with pytest.raises(error):
        pcg64_seeds(seed, [[1, 2, 3]])
    # The library samplers take a seed through as_generator, which refuses it alike.
    with pytest.raises(error):
        noise.as_generator(seed)
    with pytest.raises(error):
        sample_filter_batch(seed, 1)


@pytest.mark.parametrize("seed", DERIVATION_SEEDS)
def test_an_int_seed_draws_as_default_rng(seed):
    expected = np.random.default_rng(seed).standard_normal(40)
    assert np.array_equal(noise.as_generator(seed).standard_normal(40), expected)
    assert np.array_equal(RandomStream(seed).generator().standard_normal(40), expected)
    assert np.array_equal(noise.as_generator(np.uint64(seed % 2**64)).standard_normal(40),
                          np.random.default_rng(np.uint64(seed % 2**64)).standard_normal(40))


@pytest.mark.parametrize("seed", [0, 2**70 + 5])
def test_a_stream_draws_alike_from_generator_and_child_generators(seed):
    stream = RandomStream(seed)
    for key in ((), (1, 2, 3)):
        (gen,) = seated_generators(pcg64_seeds(seed, np.array([key], dtype=np.uint64)))
        expected = stream.child(*key).generator().standard_normal(40)
        assert np.array_equal(gen.standard_normal(40), expected)


# ---------------------------------------------------------------------------
# Filter model
# ---------------------------------------------------------------------------


def test_filter_params_validation():
    with pytest.raises(ValueError):
        lb.FilterParams(p=-0.1, bloch=(0, 0, 1))
    with pytest.raises(ValueError):
        lb.FilterParams(p=1.5, bloch=(0, 0, 1))
    with pytest.raises(ValueError):
        lb.FilterParams(p=0.1, bloch=(0, 0, 2))
    for p, bloch in ((np.nan, (0, 0, 1)), (0.1, (np.nan, 0, 0)), (0.1, (np.inf, 0, 0))):
        with pytest.raises(ValueError):
            lb.FilterParams(p=p, bloch=bloch)


def test_shelving_params_refuse_non_finite_values():
    for key, value in (
        ("phi", np.nan),
        ("phi", np.inf),
        ("sigma_gamma", np.nan),
        ("sigma_gamma", np.inf),
        ("sigma_gamma", -1.0),
        ("sigma_gamma", 1e308),  # finite, but 1e308 * x overflows for |x| > 1.8
    ):
        with pytest.raises(ValueError, match=key):
            lb.ShelvingParams(**{key: value})
    assert lb.ShelvingParams(sigma_gamma=1e307).sigma_gamma == 1e307


def test_filter_channel_zero_strength_is_identity():
    ch = lb.filter_channel(lb.FilterParams(p=0.0, bloch=(0, 1, 0)))
    assert np.max(np.abs(ch.liouville - np.eye(4))) < 1e-12


def test_filter_channel_survivals():
    ch = lb.filter_channel(lb.FilterParams(p=0.04, bloch=(0, 0, 1)))
    assert abs(lb.transfer_matrix(ch)[0, 0] - 0.98) < 1e-12
    # Columns 0 and 3 of the Liouville matrix are vec E(|0><0|) and vec E(|1><1|).
    survivals = vec(ch.space.code_projector).conj() @ ch.liouville[:, [0, 3]]
    assert np.max(np.abs(survivals - [1.0, 0.96])) < 1e-12


def test_filter_channel_full_strength_is_projection():
    ch = lb.filter_channel(lb.FilterParams(p=1.0, bloch=(0, 0, 1)))
    proj = np.diag([1.0, 0.0]).astype(complex)
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_density(2, rng)
        assert np.max(np.abs(ch.liouville @ vec(rho) - vec(proj @ rho @ proj))) < 1e-12


def test_filter_kraus_sum_spectrum():
    rng = RandomStream(77).generator()
    for _ in range(100):
        fp = sample_filter_params(rng)
        ch = lb.filter_channel(fp)
        spectrum = np.sort(np.linalg.eigvalsh(ch.kraus_sum()))
        assert np.max(np.abs(spectrum - np.array([1.0 - fp.p, 1.0]))) < 1e-10
        diag = lb.cp_tp_diagnostics(ch)
        assert diag.is_cp and diag.is_trace_nonincreasing


def test_sample_filter_assignment_reproducible():
    na1, _ = sample_filter_assignment(RandomStream(99))
    na2, _ = sample_filter_assignment(RandomStream(99))
    for c1, c2 in zip(na1.channels, na2.channels):
        for k1, k2 in zip(c1.kraus, c2.kraus):
            assert np.array_equal(k1, k2)


def test_sampled_filter_strength_distribution():
    ps, _ = sample_filter_batch(RandomStream(202).generator(), 100_000)
    assert ps.min() >= 0.0 and ps.max() <= 0.05
    assert abs(ps.mean() - 0.025) < 0.001


def test_sampled_filter_directions_cover_sphere():
    _, vs = sample_filter_batch(RandomStream(203).generator(), 100_000)
    assert np.max(np.abs(vs.mean(axis=0))) < 0.01
    assert np.max(np.abs(np.linalg.norm(vs, axis=1) - 1.0)) < 1e-9


def _assert_same_draws(batched, sequential):
    p, bloch = batched
    assert np.array_equal(p, [fp.p for fp in sequential])
    assert np.array_equal(bloch, [fp.bloch for fp in sequential])


def test_filter_batch_is_the_sequential_draws():
    batched, one_at_a_time, scalar = (RandomStream(204).generator() for _ in range(3))
    draws = sample_filter_batch(batched, 1000)
    _assert_same_draws(draws, [sample_filter_params(one_at_a_time) for _ in range(1000)])
    _assert_same_draws(draws, [reference_filter_params(scalar) for _ in range(1000)])
    # All three generators are left at the same stream position.
    after = [sample_filter_params(gen) for gen in (batched, one_at_a_time, scalar)]
    assert after[0] == after[1] == after[2]


def test_filter_batch_pins_the_uniform_and_normal_draws_at_every_seed():
    # random() and standard_normal(3) are the bits of uniform(0, 0.05) and normal(size=3),
    # which the reference draws, and leave the stream where they do.
    for seed in range(1000):
        batched, scalar = RandomStream(seed).generator(), RandomStream(seed).generator()
        _assert_same_draws(
            sample_filter_batch(batched, 50), [reference_filter_params(scalar) for _ in range(50)]
        )
        assert batched.bit_generator.state == scalar.bit_generator.state


class _ZeroFirstNormals(np.random.Generator):
    """A generator of the stream whose first ``zeros`` normal draws, through ``normal``
    or ``standard_normal``, are zero, and take no bits."""

    def __init__(self, stream, zeros):
        super().__init__(stream.generator().bit_generator)
        self.zeros = zeros

    def normal(self, loc=0.0, scale=1.0, size=None):
        if self.zeros:
            self.zeros -= 1
            return np.zeros(size)
        return super().normal(loc, scale, size)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if self.zeros:
            self.zeros -= 1
            out = np.empty(size) if out is None else out
            out[...] = 0.0
            return out
        return super().standard_normal(size, dtype, out)


def test_filter_batch_redraws_a_zero_direction():
    stub = _ZeroFirstNormals(RandomStream(205), zeros=2)
    p, bloch = sample_filter_batch(stub, 20)
    assert stub.zeros == 0 and np.all(np.isfinite(bloch))
    reference = _ZeroFirstNormals(RandomStream(205), zeros=2)
    _assert_same_draws((p, bloch), [reference_filter_params(reference) for _ in range(20)])
    # The first uniform is followed by two zero triples and one redrawn triple.
    gen = RandomStream(205).generator()
    assert p[0] == gen.uniform(0.0, 0.05)
    v = gen.normal(size=3)
    assert np.array_equal(bloch[0], v / np.linalg.norm(v))


def test_filter_kraus_stack_is_the_per_channel_kraus():
    p, bloch = sample_filter_batch(RandomStream(206).generator(), 200)
    stack = lb.noise.filter_kraus(p, bloch)
    expected = [
        reference_filter_channel(lb.FilterParams(p=float(s), bloch=tuple(r))).kraus
        for s, r in zip(p, bloch)
    ]
    assert stack.shape == (200, 2, 2, 2) and np.array_equal(stack, expected)
    na, params = sample_filter_assignment(RandomStream(206).generator(), n_gates=200)
    assert np.array_equal([ch.kraus for ch in na.channels], expected)
    _assert_same_draws((p, bloch), params)


# ---------------------------------------------------------------------------
# Shelving model
# ---------------------------------------------------------------------------


def test_shelving_pulse_ideal():
    expected = np.eye(3, dtype=complex)
    expected[1:, 1:] = PAULI_X
    assert np.max(np.abs(shelving_pulse(0.0) - expected)) < 1e-15


def test_shelving_pulse_quarter_angle():
    expected = np.diag([1.0, 1j, 1j])
    assert np.max(np.abs(shelving_pulse(np.pi / 2) - expected)) < 1e-15


def test_shelving_pulse_unitary_for_all_angles():
    rng = np.random.default_rng(5)
    for gamma in rng.uniform(-np.pi, np.pi, size=1000):
        v = shelving_pulse(gamma)
        assert np.max(np.abs(v @ v.conj().T - np.eye(3))) < 1e-12


def test_code_rotation_zero_angle():
    assert np.max(np.abs(code_rotation(0.0, np.eye(2)) - np.eye(3))) < 1e-15


def test_code_rotation_half_pi():
    expected = np.eye(3, dtype=complex)
    expected[:2, :2] = 1j * PAULI_X
    assert np.max(np.abs(code_rotation(np.pi / 2, np.eye(2)) - expected)) < 1e-12


def _taylor_expm(a: np.ndarray, terms: int = 40) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out += term
    return out


def test_code_rotation_matches_series_exponential():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = haar_unitary(2, rng)
        phi = float(rng.uniform(-1.0, 1.0))
        closed = code_rotation(phi, u)
        series = np.eye(3, dtype=complex)
        series[:2, :2] = _taylor_expm(1j * phi * (u @ PAULI_X @ u.conj().T))
        assert np.max(np.abs(closed - series)) < 1e-10
        assert np.max(np.abs(closed @ closed.conj().T - np.eye(3))) < 1e-12


def test_code_rotation_rejects_non_unitary():
    with pytest.raises(ValueError):
        code_rotation(0.1, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_coherent_noise_ideal_limit_is_identity():
    ch = lb.sample_coherent_noise(lb.ShelvingParams(phi=0.0, sigma_gamma=0.0), RandomStream(1))
    assert np.max(np.abs(ch.kraus[0] - np.eye(3))) < 1e-15


def test_coherent_noise_sample_is_unitary_and_tp():
    gen = RandomStream(2).generator()
    sp = lb.ShelvingParams()
    for _ in range(200):
        ch = lb.sample_coherent_noise(sp, gen)
        (u,) = ch.kraus
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12
    diag = lb.cp_tp_diagnostics(ch)
    assert diag.is_trace_preserving


def test_coherent_noise_trace_decreasing_on_code_space():
    ch = lb.sample_coherent_noise(lb.ShelvingParams(), RandomStream(6))
    s = lb.transfer_matrix(ch)
    assert s[0, 0] < 1.0


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_unitary_single_dim_is_phase():
    u = haar_unitary(1, RandomStream(4))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_reproducible():
    a = haar_unitary(3, RandomStream(12))
    b = haar_unitary(3, RandomStream(12))
    assert np.array_equal(a, b)


def _ginibre(n, gen):
    return gen.normal(size=(n, 2, 2)) + 1j * gen.normal(size=(n, 2, 2))


def _haar_batch(n, gen):
    return np.stack(_haar_entries(_ginibre(n, gen)), axis=-1).reshape(n, 2, 2)


def test_haar_one_design_property():
    gen = RandomStream(13).generator()
    rho = np.diag([1.0, 0.0]).astype(complex)
    us = _haar_batch(100_000, gen)
    evolved = us @ rho @ np.conj(np.transpose(us, (0, 2, 1)))
    mean = evolved.mean(axis=0)
    assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.005


def test_haar_batch_matches_single_draw_distribution():
    # batch path must produce unitaries too
    us = _haar_batch(100, RandomStream(14).generator())
    for u in us:
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_closed_form_haar_matches_lapack_qr():
    # The kernel's closed-form u X u^dag against the explicit four-factor
    # product with the LAPACK QR Haar unitaries of the same Ginibre draws.
    sp = lb.ShelvingParams(phi=0.3, sigma_gamma=0.5)
    normals = RandomStream(15).generator().standard_normal((2000, sp.n_normals))
    re_im = normals[:, 2:].reshape(-1, 2, 2, 2, 2)
    q, r = np.linalg.qr(re_im[:, :, 0] + 1j * re_im[:, :, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (d / np.abs(d))[..., None, :]
    for row, (u1, u2), u in zip(normals, haar, sp.unitaries(normals)):
        gamma1, gamma2 = sp.sigma_gamma * row[:2]
        explicit = (
            shelving_pulse(gamma2)
            @ code_rotation(sp.phi, u2)
            @ shelving_pulse(gamma1)
            @ code_rotation(sp.phi, u1)
        )
        assert np.max(np.abs(u - explicit)) < 1e-13


def test_coherent_noise_matches_explicit_product():
    # The scalar draw order: two pulse angles, then u1 and u2 as QR-based
    # Haar unitaries, each from the real then the imaginary Ginibre part.
    sp = lb.ShelvingParams()
    for seed in range(1000):
        gen = RandomStream(seed, key=(5,)).generator()
        gamma1, gamma2 = gen.normal(0.0, sp.sigma_gamma, size=2)
        u1, u2 = haar_unitary(2, gen), haar_unitary(2, gen)
        explicit = (
            shelving_pulse(gamma2)
            @ code_rotation(sp.phi, u2)
            @ shelving_pulse(gamma1)
            @ code_rotation(sp.phi, u1)
        )
        (u,) = lb.sample_coherent_noise(sp, RandomStream(seed, key=(5,))).kraus
        assert np.max(np.abs(u - explicit)) < 1e-13


def test_sampler_batch_matches_single_draws():
    sampler = lb.ShelvingParams(phi=0.3, sigma_gamma=0.5)
    normals = RandomStream(16).generator().standard_normal((4, 5, sampler.n_normals))
    batch = sampler.unitaries(normals)
    assert batch.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        assert np.max(np.abs(batch[idx] - sampler.unitaries(normals[idx]))) < 1e-15
    # The entry layout of a strided, step-major view, as the engine reads it.
    entries = sampler.entries(normals.swapaxes(0, 1))
    assert entries.shape == (9, 5, 4)
    assert np.array_equal(entries.reshape(3, 3, 5, 4), batch.transpose(2, 3, 1, 0))


# ---------------------------------------------------------------------------
# Averaged coherent channel
# ---------------------------------------------------------------------------


def test_averaged_channel_ideal_limit():
    sp = lb.ShelvingParams(phi=0.0, sigma_gamma=0.0)
    avg = lb.averaged_coherent_channel(sp, 50, RandomStream(21))
    assert np.max(np.abs(avg.liouville - np.eye(9))) < 1e-12


def test_averaged_channel_reference_decay_value():
    avg = lb.averaged_coherent_channel(lb.ShelvingParams(), 200_000, RandomStream(22))
    diag = lb.cp_tp_diagnostics(avg, tol=1e-8)
    assert diag.is_trace_preserving
    s = lb.transfer_matrix(avg)
    plus, minus = np.sort(np.linalg.eigvals(s))[::-1]
    assert abs(plus - 1.0) < 1e-6
    # Frozen from the 10^6-sample oracle; the decaying eigenvalue of the
    # parameter-averaged channel at phi=0.01, sigma=0.06.
    assert abs(minus - 0.98919) < 5e-4
    # The per-subspace average (ideal value 1) matches the published 0.995.
    assert abs((s[0, 0] + s[1, 1]) / 2.0 - 0.995) < 5e-4
    assert abs(np.trace(s) - (1.0 + minus)) < 1e-9


def test_averaged_channel_variance_scales_inversely_with_samples():
    sp = lb.ShelvingParams()
    root = RandomStream(23)

    def entry_estimates(n, offset):
        vals = []
        for rep in range(24):
            avg = lb.averaged_coherent_channel(sp, n, root.child(offset, rep))
            vals.append(lb.transfer_matrix(avg)[0, 0])
        return np.var(vals, ddof=1)

    v_small = entry_estimates(500, 0)
    v_big = entry_estimates(1000, 1)
    ratio = v_small / v_big
    assert 1.2 < ratio < 3.4


def test_averaged_channel_rejects_bad_count():
    with pytest.raises(ValueError):
        lb.averaged_coherent_channel(lb.ShelvingParams(), 0, RandomStream(1))


#: The one fill mode of the oracle's normal tape, on any number of CPUs: a
#: worker thread draws the normals.
FILL_MODES = ["thread"]


@pytest.mark.parametrize("batch_size", [50_000])  # the pinned stream layout
@pytest.mark.parametrize(
    "n", [1, 7, 2_499, 2_501, 9_999, 10_000, 10_001, 49_999, 50_000, 50_001, 120_000]
)
def test_averaged_channel_matches_reference(n, batch_size):
    # The piece-by-piece draws and closed-form rotations against the separate
    # gen.normal draws and Gram-Schmidt Haar entries, stream position
    # included; the reference draws in the batches of the pinned stream layout.
    # Two runs of the tape's worker, whatever its timing, give the same bits and end position.
    sp = lb.ShelvingParams()
    results = []
    for _ in range(2):
        gen = RandomStream(31).generator()
        liouville = lb.averaged_coherent_channel(sp, n, gen).liouville
        results.append((liouville, gen.standard_normal(4)))
    (threaded, threaded_next), (again, again_next) = results
    slow_gen = RandomStream(31).generator()
    slow = reference_average(sp, n, slow_gen, batch_size=batch_size)
    assert np.array_equal(threaded, again)
    assert np.array_equal(threaded_next, again_next)
    assert np.max(np.abs(threaded - slow.liouville)) < 1e-13
    assert np.array_equal(threaded_next, slow_gen.standard_normal(4))


@pytest.mark.parametrize("mode", FILL_MODES)
def test_normal_tape_pieces_are_one_stream(mode):
    # Pieces taken in order and released in any order join into one call of
    # the segments' total length, each segment starting a piece, and leave
    # the generator where that call does.
    segments, piece = [3, 25, 10, 7, 40], 10
    gen, one_call = RandomStream(9).generator(), RandomStream(9).generator()
    pieces = []
    with noise._NormalTape(gen, segments, piece, held=4) as tape:
        for n in segments:
            taken = [tape.take() for _ in range(0, n, piece)]
            pieces += [values.copy() for _, values in taken]
            for slot, _ in reversed(taken):
                tape.release(slot)
    assert [len(p) for p in pieces] == [3, 10, 10, 5, 10, 7, 10, 10, 10, 10]
    assert np.array_equal(np.concatenate(pieces), one_call.standard_normal(sum(segments)))
    assert np.array_equal(gen.standard_normal(4), one_call.standard_normal(4))


def test_normal_tape_under_thread_switching():
    # Four readers, each with its worker, switching threads every
    # 10 us: a slot refilled while its piece was still held would change the
    # piece before it is copied at its release.
    segments, piece, held = [50] * 40, 7, 3
    expected = RandomStream(11).generator().standard_normal(sum(segments))
    results = []

    def read():
        values, taken = [], []
        with noise._NormalTape(RandomStream(11).generator(), segments, piece, held) as tape:
            for _ in range(sum(-(-n // piece) for n in segments)):
                taken.append(tape.take())
                if len(taken) == held:
                    for slot, piece_values in taken:
                        values.append(piece_values.copy())
                        tape.release(slot)
                    taken = []
            for slot, piece_values in taken:
                values.append(piece_values.copy())
        results.append(np.array_equal(np.concatenate(values), expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read, daemon=True) for _ in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert results == [True] * 4


class _FailingGenerator(np.random.Generator):
    """A generator whose ``fail_at``-th ``standard_normal`` call raises."""

    def __init__(self, fail_at: int):
        super().__init__(np.random.PCG64(1))
        self.calls, self.fail_at = 0, fail_at

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError(f"fill {self.calls} failed")
        return super().standard_normal(*args, **kwargs)


def _raised_and_threads(call):
    """(the exception call() raised, or None; the threads alive before; after).

    call() runs on a helper thread joined with a timeout, so that a hang fails
    the test instead of stalling the suite.
    """
    outcome = []

    def target():
        before = threading.active_count()
        try:
            call()
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)
        outcome.extend([before, threading.active_count()])

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive(), "the call hung"
    return tuple(outcome)


@pytest.mark.parametrize("mode", FILL_MODES)
def test_averaged_channel_leaves_no_thread_behind(mode):
    call = lambda: lb.averaged_coherent_channel(lb.ShelvingParams(), 60_000, RandomStream(3))
    raised, before, after = _raised_and_threads(call)
    assert raised is None and after == before


@pytest.mark.parametrize("fail_at", [1, 9, 60])
@pytest.mark.parametrize("mode", FILL_MODES)
def test_averaged_channel_raises_a_draw_error(mode, fail_at):
    # A draw that fails on the worker fails the call with its own
    # error, and the worker is stopped and joined.
    gen = _FailingGenerator(fail_at)
    call = lambda: lb.averaged_coherent_channel(lb.ShelvingParams(), 120_000, gen)
    raised, before, after = _raised_and_threads(call)
    assert isinstance(raised, RuntimeError) and str(raised) == f"fill {fail_at} failed"
    assert after == before


@pytest.mark.parametrize("fail_at", [1, 3])
@pytest.mark.parametrize("mode", FILL_MODES)
def test_averaged_channel_stops_the_worker_on_a_reader_error(monkeypatch, mode, fail_at):
    # An error in the arithmetic, while the worker draws ahead or waits for a
    # free piece, stops and joins the worker.
    calls, kernel = [], noise.shelving_unitaries

    def failing_kernel(*args):
        calls.append(1)
        if len(calls) == fail_at:
            raise FloatingPointError("kernel failed")
        return kernel(*args)

    monkeypatch.setattr(noise, "shelving_unitaries", failing_kernel)
    call = lambda: lb.averaged_coherent_channel(lb.ShelvingParams(), 120_000, RandomStream(4))
    raised, before, after = _raised_and_threads(call)
    assert isinstance(raised, FloatingPointError) and after == before


def test_averaged_channel_peak_memory():
    # 10 doubles held per batch draw, not its 18 normals (the angles' and the
    # real parts' pieces on the tape and the first rotations), the worker's
    # 8 pieces of lookahead, and 2.5k-draw chunks of kernel work: 6.18 MiB
    # with the worker in a fresh process, against 8.92 MiB
    # with the whole batch in one buffer and 14.66 MiB with a complex copy.
    tracemalloc.start()
    try:
        lb.averaged_coherent_channel(lb.ShelvingParams(), 200_000, RandomStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.3 * 2**20


def test_batch_sampling_matches_scalar_path():
    # One Monte Carlo draw consumes the stream in the scalar order.
    sp = lb.ShelvingParams()
    single = lb.sample_coherent_noise(sp, RandomStream(88).generator()).liouville
    batch = lb.averaged_coherent_channel(sp, 1, RandomStream(88).generator()).liouville
    assert np.max(np.abs(single - batch)) < 1e-14


# ---------------------------------------------------------------------------
# Model lookup
# ---------------------------------------------------------------------------


def test_build_noise_model_none():
    gs = lb.pauli_gateset()
    assert build_noise_model(None, gs, RandomStream(1)) is None
    assert build_noise_model({"id": "none"}, gs, RandomStream(1)) is None


def test_build_noise_model_filter_from_seed():
    gs = lb.pauli_gateset()
    na1 = build_noise_model({"id": "filter", "params": {"seed": 42}}, gs, RandomStream(1))
    na2 = build_noise_model({"id": "filter", "params": {"seed": 42}}, gs, RandomStream(2))
    for c1, c2 in zip(na1.channels, na2.channels):
        assert np.array_equal(c1.kraus[0], c2.kraus[0])
    assert not na1.stochastic


def test_build_noise_model_filter_explicit_gates():
    gs = lb.pauli_gateset()
    spec = {
        "id": "filter",
        "params": {"gates": [{"p": 0.01 * (i + 1), "r": [0.0, 0.0, 1.0]} for i in range(4)]},
    }
    na = build_noise_model(spec, gs, RandomStream(1))
    assert abs(lb.transfer_matrix(lb.average_noise(na))[0, 0] - 0.9875) < 1e-12
    with pytest.raises(ValueError):
        build_noise_model(
            {"id": "filter", "params": {"gates": [{"p": 0.01, "r": [0, 0, 1]}]}},
            gs,
            RandomStream(1),
        )


def test_build_noise_model_shelving():
    gs = lb.shelving_gateset()
    na = build_noise_model(
        {"id": "shelving", "params": {"phi": 0.01, "sigma_gamma": 0.06}},
        gs,
        RandomStream(1),
    )
    assert na.stochastic
    assert na.sampler == lb.ShelvingParams(phi=0.01, sigma_gamma=0.06)
    ch = lb.sample_coherent_noise(na.sampler, RandomStream(5).generator())
    assert ch.space == QUTRIT
    with pytest.raises(ValueError):
        build_noise_model({"id": "shelving"}, lb.pauli_gateset(), RandomStream(1))


def test_build_noise_model_unknown_id():
    with pytest.raises(ValueError):
        build_noise_model({"id": "thermal"}, lb.pauli_gateset(), RandomStream(1))


def test_filter_assignment_returns_params():
    na, params = sample_filter_assignment(RandomStream(31))
    assert len(params) == 4
    for fp, ch in zip(params, na.channels):
        spectrum = np.sort(np.linalg.eigvalsh(ch.kraus_sum()))
        assert abs(spectrum[0] - (1.0 - fp.p)) < 1e-10
