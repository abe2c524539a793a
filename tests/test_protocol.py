import copy
import itertools
import json
import os
import pickle
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import design, random_channel, random_density, run_python
from reference import (
    decay_eigenvalues,
    incoherent_survival,
    run_sequence,
    sample_sequence,
    shot_estimate,
    transfer_block,
)

import leakbench as lb
import leakbench.protocol as protocol
from leakbench import Channel, SpaceSpec
from leakbench.cli import figure_config
from leakbench.gatesets import NoiseAssignment
from leakbench.liouville import mix, vec
from leakbench.noise import RandomStream, pcg64_integers, pcg64_seeds
from leakbench.protocol import (
    ConfigError,
    DecayDataset,
    ExperimentConfig,
    SpamSpec,
    brute_force_expectation,
    decay_parameters,
    exact_expectations,
    predicted_expectation,
    _NOISE_KEY,
    _SEQ_KEY,
    _experiment_components,
    _lengths_probabilities,
    run_experiment,
    run_sequences,
)

QUBIT = SpaceSpec(d1=2, d2=0)
QUTRIT = SpaceSpec(d1=2, d2=1)


def filter_z(p):
    return lb.filter_channel(lb.FilterParams(p=p, bloch=(0.0, 0.0, 1.0)))


def fixed_shelving_channel(seed=12):
    """A fixed, non-trace-preserving channel on the qutrit for oracle tests."""
    unitary_part = lb.sample_coherent_noise(lb.ShelvingParams(), RandomStream(seed))
    absorber = Channel(
        QUTRIT,
        [np.sqrt(0.97) * np.eye(3), np.sqrt(0.03) * np.diag([1.0, 1.0, 0.0])],
    )
    return mix([unitary_part, absorber], [0.7, 0.3])


# ---------------------------------------------------------------------------
# Sequence sampling
# ---------------------------------------------------------------------------


def _stream_draws(seed, n_gates, lengths):
    """The gate indices of sequences j < len(lengths) drawn from the streams (seed, m, j, 0)."""
    keys = [(m, j, 0) for j, m in enumerate(lengths)]
    return pcg64_integers(pcg64_seeds(seed, keys), n_gates, lengths)[0]


def test_sample_sequence_single_gate():
    assert not _stream_draws(1, 1, [5, 3]).any()
    assert sample_sequence(5, 1, RandomStream(1)) == (0, 0, 0, 0, 0)


def test_sample_sequence_reproducible():
    assert np.array_equal(_stream_draws(2, 8, [20, 7]), _stream_draws(2, 8, [20, 7]))
    assert sample_sequence(20, 8, RandomStream(2)) == sample_sequence(20, 8, RandomStream(2))


def test_sample_sequence_uniform_frequencies():
    draws = _stream_draws(3, 4, [100] * 1000)
    freqs = np.bincount(draws.ravel(), minlength=4) / draws.size
    assert np.max(np.abs(freqs - 0.25)) < 0.005


def test_sample_sequence_validation():
    seeds = pcg64_seeds(1, [(4, 0, 0), (4, 1, 0)])
    with pytest.raises(ValueError, match="high"):
        pcg64_integers(seeds, 0, [4, 4])
    for lengths in ([4], [4, -1], [[4, 4]]):
        with pytest.raises(ValueError, match="lengths"):
            pcg64_integers(seeds, 4, lengths)
    with pytest.raises(ValueError):
        sample_sequence(0, 4, RandomStream(1))


# ---------------------------------------------------------------------------
# Sequence execution
# ---------------------------------------------------------------------------


def test_run_sequence_noiseless_pauli_is_one():
    gs = lb.pauli_gateset()
    for k in [(0,), (1, 2, 3), (3, 3, 2, 1, 0)]:
        assert abs(run_sequence(k, gs, None) - 1.0) < 1e-12


def test_run_sequence_noiseless_shelving_is_one():
    gs = lb.shelving_gateset()
    k = sample_sequence(30, len(gs), RandomStream(4))
    assert abs(run_sequence(k, gs, None) - 1.0) < 1e-12


def test_run_sequence_protected_state():
    gs = lb.pauli_gateset()
    na = NoiseAssignment.uniform(filter_z(0.04), 4)
    # |0><0| is the +z filter's protected state and index 0 is the identity.
    assert abs(run_sequence((0,), gs, na) - 1.0) < 1e-12


def test_run_sequence_error_then_gate_order():
    gs = lb.pauli_gateset()
    na = NoiseAssignment.uniform(filter_z(0.04), 4)
    # One X gate: the noise hits |0><0| first (survival 1), then X flips it.
    assert abs(run_sequence((1,), gs, na) - 1.0) < 1e-12
    # Two steps: after X the state is |1><1|, which the second noise attenuates.
    p2 = run_sequence((1, 0), gs, na)
    assert abs(p2 - 0.96) < 1e-12


def test_run_sequence_stochastic_requires_rng():
    gs = lb.shelving_gateset()
    na = NoiseAssignment(QUTRIT, sampler=lb.ShelvingParams())
    with pytest.raises(ValueError):
        run_sequence((0, 1), gs, na)
    p = run_sequence((0, 1), gs, na, rng=RandomStream(5).generator())
    assert 0.0 <= p <= 1.0 + 1e-12


def test_run_sequence_index_validation():
    gs = lb.pauli_gateset()
    with pytest.raises(ValueError):
        run_sequence((7,), gs, None)


def test_run_sequence_space_mismatch():
    gs = lb.pauli_gateset()
    na = NoiseAssignment.uniform(Channel(QUTRIT, [np.eye(3)]), 4)
    with pytest.raises(ValueError):
        run_sequence((0,), gs, na)
    with pytest.raises(ValueError):
        run_sequences([(0,)], gs, na)


def test_run_sequences_index_validation():
    gs = lb.pauli_gateset()
    with pytest.raises(ValueError):
        run_sequences([(0, 4)], gs, None)
    with pytest.raises(ValueError):
        run_sequences([(-1, 0)], gs, None)


# ---------------------------------------------------------------------------
# Shot estimation
# ---------------------------------------------------------------------------


def test_shot_estimate_degenerate_probabilities():
    assert shot_estimate(1.0, 100, RandomStream(6)) == 1.0
    assert shot_estimate(0.0, 100, RandomStream(6)) == 0.0


def test_shot_estimate_binomial_statistics():
    gen = RandomStream(7).generator()
    estimates = np.array([shot_estimate(0.5, 10_000, gen) for _ in range(400)])
    assert abs(estimates.mean() - 0.5) < 0.01
    expected_var = 0.5 * 0.5 / 10_000
    assert 0.5 * expected_var < estimates.var(ddof=1) < 2.0 * expected_var


def test_shot_estimate_validation():
    with pytest.raises(ValueError):
        shot_estimate(1.2, 10, RandomStream(1))
    with pytest.raises(ValueError):
        shot_estimate(0.5, 0, RandomStream(1))


def test_shot_estimates_converge_to_exact():
    gs = lb.pauli_gateset()
    na = NoiseAssignment.uniform(filter_z(0.05), 4)
    k = (1, 0, 2, 3, 1, 1, 0, 2)
    exact = run_sequence(k, gs, na)
    gen = RandomStream(8).generator()
    for shots in (100, 10_000, 1_000_000):
        reps = np.array([shot_estimate(exact, shots, gen) for _ in range(30)])
        tol = 4.0 * np.sqrt(exact * (1 - exact) / shots)
        assert abs(reps.mean() - exact) < tol


# ---------------------------------------------------------------------------
# Experiment configs and datasets
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(gateset="pauli", noise=None, m_list=(), n_sequences=5, seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(gateset="pauli", noise=None, m_list=(0,), n_sequences=5, seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(gateset="pauli", noise=None, m_list=(5,), n_sequences=0, seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(
            gateset="pauli", noise=None, m_list=(5,), n_sequences=1, seed=1, shots=0
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"gateset": "pauli"})
    with pytest.raises(ConfigError, match="m_list"):
        ExperimentConfig(gateset="pauli", noise=None, m_list=(1.7,), n_sequences=5, seed=1)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(gateset="pauli", noise=None, m_list=(5,), n_sequences=5, seed=-1)
    with pytest.raises(ConfigError, match="n_sequences"):
        ExperimentConfig.from_dict(
            {"gateset": "pauli", "m_list": [5], "n_sequences": 2.5, "seed": 1}
        )
    with pytest.raises(ConfigError, match=r"bad m_list: repeats the length 20"):
        ExperimentConfig(
            gateset="pauli", noise=None, m_list=(10, 20, 20.0, 30), n_sequences=5, seed=1
        )
    exact = ExperimentConfig(gateset="pauli", noise=None, m_list=(5.0,), n_sequences=5, seed=1)
    assert exact.m_list == (5,) and isinstance(exact.m_list[0], int)


def test_config_sections_must_be_objects():
    doc = {"gateset": "pauli", "noise": None, "m_list": [5], "n_sequences": 2, "seed": 1}
    with pytest.raises(ConfigError, match="bad top level: expected an object"):
        ExperimentConfig.from_dict([doc])
    for change, what in (
        ({"noise": "filter"}, "bad noise: expected an object"),
        ({"noise": {"id": "filter", "params": [1]}}, "bad noise.params: expected an object"),
        ({"spam": [1]}, "bad spam: expected an object"),
        ({"noise": {"id": ["filter"]}}, "bad noise.id: expected one of"),
    ):
        with pytest.raises(ConfigError, match=what):
            ExperimentConfig.from_dict({**doc, **change})


def test_config_accepts_every_known_noise_param():
    for noise in (
        None,
        {"id": "none", "params": {}},
        {"params": None},
        {"id": "filter", "params": {"seed": 3}},
        {"id": "filter", "params": {"gates": [{"p": 0.01, "r": [0, 0, 1]}] * 4}},
        {"id": "shelving", "params": {"phi": 0.02, "sigma_gamma": 0.1, "seed": 9}},
    ):
        cfg = ExperimentConfig(gateset="pauli", noise=noise, m_list=(5,), n_sequences=1, seed=1)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(
        gateset="pauli",
        noise={"id": "filter", "params": {"seed": 3}},
        m_list=(10, 20),
        n_sequences=4,
        seed=9,
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    other = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": 10})
    assert other.config_hash() != cfg.config_hash()


def test_dataset_csv_json_roundtrip(tmp_path):
    ds = DecayDataset.from_arrays(
        [10, 20, 30], [0.9, 0.8, 0.7], [0.01, 0.02, 0.03], [5, 6, 7],
        provenance={"seed": 1},
    )
    csv_path = tmp_path / "decay.csv"
    ds.to_csv(str(csv_path))
    json_path = tmp_path / "decay.json"
    ds.to_json(str(json_path))
    assert csv_path.read_text().splitlines()[0] == "m,mean,sem,n"
    dtypes = {"ms": np.int64, "means": float, "sems": float, "counts": np.int64}
    for back in (DecayDataset.from_csv(str(csv_path)), DecayDataset.from_json(str(json_path))):
        for name, dtype in dtypes.items():
            column = getattr(back, name)
            assert column.dtype == dtype and not column.flags.writeable, name
            assert np.array_equal(column, getattr(ds, name)), name
    assert DecayDataset.from_json(str(json_path)).provenance == {"seed": 1}
    assert DecayDataset.from_csv(str(csv_path)).provenance == {}
    with pytest.raises(ConfigError, match=r"^bad dataset\[2\]\.mean: required, and missing$"):
        DecayDataset.from_arrays([10, 20, 30], [0.9, 0.8])


#: The rows of a valid dataset, whose means and sems are not short decimals.
DATASET_ROWS = [
    {"m": 10, "mean": 0.97 * 0.985**9, "sem": 0.1 / 3, "n": 5},
    {"m": 20, "mean": 0.97 * 0.985**19, "sem": 0.2 / 3, "n": 6},
    {"m": 30, "mean": 0.97 * 0.985**29, "sem": 0.0, "n": 7},
]


def _dataset_ways(tmp_path, rows):
    """Make the dataset of ``rows`` in each of the four ways; a dict missing a key
    leaves that entry out, as a short column, a JSON row without it, or a short CSV row."""
    columns = [[row[key] for row in rows if key in row] for key in ("m", "mean", "sem", "n")]
    csv_path, json_path = tmp_path / "decay.csv", tmp_path / "decay.json"
    cells = [",".join(json.dumps(v) for v in row.values()) for row in rows]
    csv_path.write_text("\n".join(["m,mean,sem,n"] + cells) + "\n")
    json_path.write_text(json.dumps({"dataset": rows}))
    return {
        "from_arrays": lambda: DecayDataset.from_arrays(*columns),
        "constructor": lambda: DecayDataset(*map(np.array, columns)),
        "from_csv": lambda: DecayDataset.from_csv(str(csv_path)),
        "from_json": lambda: DecayDataset.from_json(str(json_path)),
    }


@pytest.mark.parametrize(
    "row, key, value, message",
    [
        (1, "m", 0, "bad dataset[1].m: expected an integer in [1, 9223372036854775807], got 0"),
        (1, "n", 0, "bad dataset[1].n: expected an integer in [1, 9223372036854775807], got 0"),
        (1, "mean", 1.5, "bad dataset[1].mean: expected a finite real number in "
                         "[-1e-09, 1.000000001], got 1.5"),
        (1, "mean", float("nan"), "bad dataset[1].mean: expected a finite real number in "
                                  "[-1e-09, 1.000000001], got NaN"),
        (1, "sem", -0.01, "bad dataset[1].sem: expected a finite real number >= 0.0, got -0.01"),
        (1, "sem", float("inf"), "bad dataset[1].sem: expected a finite real number >= 0.0, "
                                 "got Infinity"),
        (None, None, None, "bad dataset: expected a nonempty list, got []"),
        (2, "n", None, "bad dataset[2].n: required, and missing"),
    ],
    ids=["m-0", "n-0", "mean-1.5", "mean-nan", "sem-negative", "sem-inf", "empty", "ragged"],
)
def test_every_way_of_making_a_dataset_refuses_a_bad_column_alike(tmp_path, row, key, value,
                                                                   message):
    rows = [] if row is None else [dict(r) for r in DATASET_ROWS]
    if key is not None and value is None:
        del rows[row][key]  # row 2 lacks its last entry: a ragged row, or a short column
    elif key is not None:
        rows[row][key] = value
    for way, make in _dataset_ways(tmp_path, rows).items():
        with pytest.raises(ConfigError) as info:
            make()
        assert str(info.value) == message, way


@pytest.mark.parametrize(
    "key, value",
    [("m", 1), ("m", 2**63 - 1), ("n", 1), ("n", 2**63 - 1), ("mean", 0.0), ("mean", 1.0),
     ("mean", -1e-9), ("mean", 1.0 + 1e-9), ("sem", 0.0), ("sem", 1e300), ("sem", 5e-324)],
)
def test_every_way_of_making_a_dataset_accepts_a_good_column_alike(tmp_path, key, value):
    rows = [dict(r) for r in DATASET_ROWS]
    rows[1][key] = value
    made = {way: make().rows() for way, make in _dataset_ways(tmp_path, rows).items()}
    assert all(got == rows for got in made.values()), made
    ds = DecayDataset.from_arrays(*([r[k] for r in rows] for k in ("m", "mean", "sem", "n")))
    ds.to_csv(str(tmp_path / "back.csv"))
    ds.to_json(str(tmp_path / "back.json"))
    for suffix, read in (("csv", DecayDataset.from_csv), ("json", DecayDataset.from_json)):
        assert read(str(tmp_path / f"back.{suffix}")).rows() == rows


def test_write_json_matches_json_dump(tmp_path):
    # One write of the whole text gives the bytes of json.dump's token-by-token writes.
    doc = {
        "z": [[1, 2.5, None], {"b": -0.1, "a": [1e-300, 3.0]}],
        "a": None,
        "m": 0.30000000000000004,
        "nested": {"y": [], "x": {}, "w": ["s", True]},
    }
    written = tmp_path / "one.json"
    protocol._write_json(written, doc)
    dumped = tmp_path / "dump.json"
    with open(dumped, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert written.read_bytes() == dumped.read_bytes()


def test_run_experiment_noiseless():
    cfg = ExperimentConfig(
        gateset="pauli", noise=None, m_list=(1, 5, 10), n_sequences=6, seed=11
    )
    ds = run_experiment(cfg)
    assert np.allclose(ds.means, 1.0, atol=1e-12)
    assert np.allclose(ds.sems, 0.0, atol=1e-12)
    assert ds.counts.tolist() == [6, 6, 6]
    assert ds.provenance["config_hash"] == cfg.config_hash()


def test_run_experiment_reproducible_and_bounded():
    cfg = ExperimentConfig(
        gateset="shelving",
        noise={"id": "shelving", "params": {}},
        m_list=(5, 10),
        n_sequences=8,
        seed=13,
    )
    ds1 = run_experiment(cfg)
    ds2 = run_experiment(cfg)
    assert np.array_equal(ds1.means, ds2.means)
    assert np.array_equal(ds1.sems, ds2.sems)
    reused = run_experiment(cfg, components=_experiment_components(cfg))
    assert reused.rows() == ds1.rows()
    assert np.all(ds1.means >= 0.0) and np.all(ds1.means <= 1.0)
    assert np.all(ds1.sems >= 0.0)


def test_run_experiment_parallel_matches_serial(monkeypatch):
    cfg = ExperimentConfig(
        gateset="pauli",
        noise={"id": "filter", "params": {"seed": 5}},
        m_list=(5, 10, 15, 20, 25, 30),
        n_sequences=10,
        seed=17,
    )
    stochastic = ExperimentConfig(
        gateset="shelving",
        noise={"id": "shelving", "params": {}},
        m_list=(2, 5, 7, 9, 11, 13),
        n_sequences=6,
        seed=17,
        shots=300,
    )
    # Six shard threads, more than most hosts' cores, switching as often as the interpreter allows.
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c in (cfg, stochastic):
            assert run_experiment(c, jobs=6).rows() == run_experiment(c, jobs=1).rows()
    finally:
        sys.setswitchinterval(interval)


def test_run_experiment_with_shots():
    cfg = ExperimentConfig(
        gateset="pauli",
        noise={"id": "filter", "params": {"seed": 5}},
        m_list=(10,),
        n_sequences=10,
        seed=19,
        shots=200,
    )
    ds = run_experiment(cfg)
    # shot estimates are multiples of 1/200
    values = ds.means * ds.counts * 200
    assert np.allclose(values, np.round(values), atol=1e-9)


def _per_sequence_reference(cfg):
    """Means and sems from the reference run_sequence, one sequence and one
    generator at a time, on the same streams."""
    gs, noise, spam, noise_seed = _experiment_components(cfg)
    means, sems = [], []
    for m in cfg.m_list:
        ps = []
        for j in range(cfg.n_sequences):
            gen = RandomStream(cfg.seed).child(m, j, _SEQ_KEY).generator()
            indices = sample_sequence(m, len(gs), gen)
            noise_gen = None
            if noise is not None and noise.stochastic:
                noise_gen = RandomStream(noise_seed).child(m, j, _NOISE_KEY).generator()
            p = run_sequence(indices, gs, noise, spam, rng=noise_gen)
            ps.append(p if cfg.shots is None else shot_estimate(p, cfg.shots, gen))
        means.append(np.mean(ps))
        sems.append(np.std(ps, ddof=1) / np.sqrt(len(ps)))
    return np.array(means), np.array(sems)


def _spam_doc(space, seed):
    from leakbench.liouville import channel_to_dict

    rng = np.random.default_rng(seed)
    return {
        "prep": channel_to_dict(random_channel(space, rng, scale=0.98)),
        "meas": channel_to_dict(random_channel(space, rng, scale=0.99)),
    }


@pytest.mark.parametrize(
    "gateset, noise, spam, shots",
    [
        ("shelving", {"id": "shelving", "params": {}}, None, None),
        ("shelving", {"id": "shelving", "params": {"phi": 0.2, "sigma_gamma": 0.4}}, QUTRIT, 400),
        ("pauli", {"id": "filter", "params": {"seed": 8}}, None, None),
        ("pauli", {"id": "filter", "params": {}}, QUBIT, 250),
        ("shelving", None, QUTRIT, None),
    ],
    ids=["shelving", "shelving-spam-shots", "filter", "filter-spam-shots", "noiseless-spam"],
)
def test_batched_engine_matches_per_sequence_reference(gateset, noise, spam, shots):
    cfg = ExperimentConfig(
        gateset=gateset,
        noise=noise,
        m_list=(1, 3, 12),
        n_sequences=9,
        seed=29,
        shots=shots,
        spam=None if spam is None else _spam_doc(spam, 41),
    )
    dataset = run_experiment(cfg)
    means, sems = _per_sequence_reference(cfg)
    assert np.max(np.abs(dataset.means - means)) < 1e-12
    assert np.max(np.abs(dataset.sems - sems)) < 1e-12


#: Chunk bounds (_CHUNK_ENTRIES, _CHUNK_SAMPLES) of one-step chunks ("1"), of
#: chunks that do not divide the lengths of the tests below ("200"), and the
#: defaults ("None"), named by their bound of fixed noise.
CHUNKS = [
    pytest.param((1, 1), id="1"),
    pytest.param((200, 20), id="200"),
    pytest.param(None, id="None"),
]


def _set_chunks(monkeypatch, chunks):
    """Patch the engine's chunk bounds of fixed and of stochastic noise to ``chunks``."""
    if chunks is not None:
        monkeypatch.setattr(protocol, "_CHUNK_ENTRIES", chunks[0])
        monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", chunks[1])


@pytest.mark.parametrize("chunks", CHUNKS[:2])
@pytest.mark.parametrize(
    "gateset, noise, spam",
    [
        ("shelving", {"id": "shelving", "params": {"phi": 0.2, "sigma_gamma": 0.4}}, QUTRIT),
        ("pauli", {"id": "filter", "params": {}}, QUBIT),
    ],
    ids=["shelving-spam", "filter-spam"],
)
def test_step_chunks_match_per_sequence_reference(monkeypatch, chunks, gateset, noise, spam):
    # Chunks of one step, and chunks that do not divide m, against one chunk.
    _set_chunks(monkeypatch, chunks)
    cfg = ExperimentConfig(
        gateset=gateset,
        noise=noise,
        m_list=(1, 7, 12),
        n_sequences=4,
        seed=31,
        shots=300,
        spam=_spam_doc(spam, 43),
    )
    dataset = run_experiment(cfg)
    means, sems = _per_sequence_reference(cfg)
    assert np.max(np.abs(dataset.means - means)) < 1e-12
    assert np.max(np.abs(dataset.sems - sems)) < 1e-12


def test_any_shard_of_lengths_draws_the_same_streams():
    cfg = ExperimentConfig(
        gateset="shelving",
        noise={"id": "shelving", "params": {"seed": 3}},
        m_list=(2, 5, 9),
        n_sequences=5,
        seed=23,
        shots=100,
    )
    components = _experiment_components(cfg)
    whole = _lengths_probabilities(cfg, cfg.m_list, components)
    assert list(whole) == [2, 5, 9]
    for shard in ([9], [5, 2], [9, 2]):
        for m, ps in _lengths_probabilities(cfg, shard, components).items():
            assert np.array_equal(ps, whole[m])


class _NanSampler:
    """A per-step sampler whose unitaries' entries are all NaN."""

    n_normals = 18
    space = QUTRIT

    def entries(self, normals, out):
        out.fill(np.nan)
        return out


def test_nan_probability_is_rejected():
    cfg = ExperimentConfig(
        gateset="shelving", noise={"id": "shelving"}, m_list=(2, 4), n_sequences=3, seed=5
    )
    gs, _, spam, root = _experiment_components(cfg)
    components = (gs, NoiseAssignment(QUTRIT, sampler=_NanSampler()), spam, root)
    with pytest.raises(ValueError, match="probability nan outside"):
        _lengths_probabilities(cfg, cfg.m_list, components)


def _ragged_batch(gs, stochastic, seed, lengths=(9, 9, 6, 6, 6, 3, 1, 0)):
    """Rows of ``lengths`` padded to 11 steps with out-of-range indices and NaN
    normals, which must never be read, and one generator seed per row."""
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    indices = np.full((len(lengths), 11), len(gs) + 5)
    normals = np.full((len(lengths), 11, 18), np.nan) if stochastic else None
    for i, length in enumerate(lengths):
        indices[i, :length] = rng.integers(0, len(gs), size=length)
        if stochastic:
            RandomStream(seed, key=(i,)).generator().standard_normal(out=normals[i, :length])
    return indices, lengths, normals


@pytest.mark.parametrize("chunks", CHUNKS)
@pytest.mark.parametrize(
    "gateset, noise, spam",
    [
        ("pauli", {"id": "filter", "params": {"seed": 6}}, QUBIT),
        ("shelving", None, QUTRIT),
        ("shelving", {"id": "shelving", "params": {"phi": 0.2, "sigma_gamma": 0.4}}, QUTRIT),
    ],
    ids=["filter-spam", "noiseless-spam", "shelving-spam"],
)
def test_ragged_batch_matches_per_sequence_reference(monkeypatch, chunks, gateset, noise, spam):
    _set_chunks(monkeypatch, chunks)
    cfg = ExperimentConfig(
        gateset=gateset, noise=noise, m_list=(1,), n_sequences=1, seed=3, spam=_spam_doc(spam, 47)
    )
    gs, na, spam, _ = _experiment_components(cfg)
    stochastic = na is not None and na.stochastic
    seed = 37
    indices, lengths, normals = _ragged_batch(gs, stochastic, seed)
    ps = run_sequences(indices, gs, na, spam, normals, lengths)
    for i, (row, length) in enumerate(zip(indices, lengths)):
        rng = RandomStream(seed, key=(i,)).generator() if stochastic else None
        assert abs(ps[i] - run_sequence(row[:length], gs, na, spam, rng=rng)) < 1e-12


def _word_budget(gs, width):
    """The least ``_CHUNK_ENTRIES`` whose word table for ``gs`` holds the words of 1..width gates."""
    return sum(len(gs) ** j for j in range(1, width + 1)) * gs.space.d**4


@pytest.mark.parametrize("width", [1, 2, 3, None])
@pytest.mark.parametrize(
    "gateset, noise, spam, default_width",
    [
        ("pauli", {"id": "filter", "params": {"seed": 6}}, QUBIT, 4),
        ("shelving", None, QUTRIT, 2),
    ],
    ids=["filter-spam", "noiseless-spam"],
)
def test_word_engine_matches_per_sequence_reference(
    monkeypatch, width, gateset, noise, spam, default_width
):
    # Words of K = 1, 2, 3 gates and the default K; rows whose lengths are not multiples
    # of K, of the full 11 columns (so the last block is narrower than K) and empty.
    cfg = ExperimentConfig(
        gateset=gateset, noise=noise, m_list=(1,), n_sequences=1, seed=3, spam=_spam_doc(spam, 79)
    )
    gs, na, spam, _ = _experiment_components(cfg)
    if width is not None:
        monkeypatch.setattr(protocol, "_CHUNK_ENTRIES", _word_budget(gs, width))
        # One entry fewer leaves the words one gate shorter.
        _, offsets = protocol._word_table(gs.gate_liouvilles, _word_budget(gs, width) - 1)
        assert len(offsets) - 1 == max(width - 1, 1)
    width = width or default_width
    _, offsets = protocol._word_table(gs.gate_liouvilles, protocol._CHUNK_ENTRIES)
    assert len(offsets) - 1 == width
    calls = []
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    indices, lengths, _ = _ragged_batch(gs, False, 83, lengths=(11, 11, 10, 8, 7, 5, 4, 2, 1, 0, 0))
    monkeypatch.setattr(np, "einsum", counting_einsum)
    ps = run_sequences(indices, gs, na, spam, lengths=lengths)
    monkeypatch.undo()
    assert len(calls) == -(-11 // width)  # one product per block of K steps
    for row, length, p in zip(indices, lengths, ps):
        assert abs(p - run_sequence(row[:length], gs, na, spam)) < 1e-12


def _prepared_states():
    """SPAM whose prepared states have the supports {0, 1} (pure, off the basis),
    {0, 2} (rank 2) and {0, 1, 2} (a prep channel makes it full rank)."""
    rng = np.random.default_rng(71)
    psi = np.array([np.cos(0.7), np.exp(0.4j) * np.sin(0.7), 0.0])
    mixed = np.zeros((3, 3), dtype=complex)
    mixed[np.ix_([0, 2], [0, 2])] = random_density(2, rng)
    ideal = SpamSpec.ideal(QUTRIT)
    return {
        "pure-off-basis": SpamSpec(rho=np.outer(psi, psi.conj()), effect=ideal.effect),
        "rank-2": SpamSpec(rho=mixed, effect=ideal.effect),
        "full-rank-prep": SpamSpec(
            rho=ideal.rho,
            effect=ideal.effect,
            prep=random_channel(QUTRIT, rng, scale=0.98),
            meas=random_channel(QUTRIT, rng, scale=0.99),
        ),
    }


@pytest.mark.parametrize("chunks", CHUNKS)
@pytest.mark.parametrize("prepared", ["pure-off-basis", "rank-2", "full-rank-prep"])
def test_stochastic_columns_match_per_sequence_reference(monkeypatch, chunks, prepared):
    # The engine evolves one column of V per row of the prepared state's support.
    _set_chunks(monkeypatch, chunks)
    spam = _prepared_states()[prepared]
    rho = spam.state_vector().reshape(3, 3)
    support, rank = {"pure-off-basis": (2, 1), "rank-2": (2, 2), "full-rank-prep": (3, 3)}[prepared]
    assert len(np.flatnonzero(np.abs(rho).sum(axis=0))) == support
    assert np.linalg.matrix_rank(rho) == rank
    gs = lb.shelving_gateset()
    na = NoiseAssignment(QUTRIT, sampler=lb.ShelvingParams(phi=0.2, sigma_gamma=0.4))
    seed = 73
    indices, lengths, normals = _ragged_batch(gs, True, seed)
    ps = run_sequences(indices, gs, na, spam, normals, lengths)
    for i, (row, length) in enumerate(zip(indices, lengths)):
        rng = RandomStream(seed, key=(i,)).generator()
        assert abs(ps[i] - run_sequence(row[:length], gs, na, spam, rng=rng)) < 1e-12


def test_run_sequences_rejects_rows_not_ordered_by_length():
    gs = lb.pauli_gateset()
    indices = np.zeros((3, 4), dtype=int)
    for lengths in ([2, 4, 4], [4, 1, 2], [4, 4], [5, 4, 4], [4, 4, -1]):
        with pytest.raises(ValueError, match="lengths"):
            run_sequences(indices, gs, None, lengths=lengths)
    indices[1, 3] = 4
    with pytest.raises(ValueError, match="gate index"):
        run_sequences(indices, gs, None, lengths=[4, 4, 2])
    assert np.allclose(run_sequences(indices, gs, None, lengths=[4, 3, 3]), 1.0)
    indices[2, 2] = -1
    with pytest.raises(ValueError, match="gate index"):
        run_sequences(indices, gs, None, lengths=[4, 3, 3])
    assert np.allclose(run_sequences(indices, gs, None, lengths=[4, 3, 2]), 1.0)


@pytest.mark.parametrize("chunk_entries", [1, 200, 1344, None])  # words of 1, 1, 3 and 4 gates
@pytest.mark.parametrize(
    "noise, spam, shots",
    [({"id": "filter", "params": {}}, QUBIT, 250), (None, QUBIT, None)],
    ids=["filter-spam-shots", "noiseless-spam"],
)
def test_all_lengths_pass_equals_per_length_calls(monkeypatch, chunk_entries, noise, spam, shots):
    if chunk_entries is not None:
        monkeypatch.setattr(protocol, "_CHUNK_ENTRIES", chunk_entries)
    cfg = ExperimentConfig(
        gateset="pauli",
        noise=noise,
        m_list=(12, 3, 30, 1, 7),
        n_sequences=6,
        seed=53,
        shots=shots,
        spam=_spam_doc(spam, 59),
    )
    components = _experiment_components(cfg)
    whole = _lengths_probabilities(cfg, cfg.m_list, components)
    assert list(whole) == list(cfg.m_list)
    for m in cfg.m_list:
        (single,) = _lengths_probabilities(cfg, [m], components).values()
        assert np.array_equal(whole[m], single)
    for shard in (cfg.m_list[0::2], cfg.m_list[1::2]):
        for m, ps in _lengths_probabilities(cfg, shard, components).items():
            assert np.array_equal(ps, whole[m])


def test_all_lengths_pass_under_jobs_matches_serial():
    cfg = ExperimentConfig(
        gateset="pauli",
        noise={"id": "filter", "params": {}},
        m_list=(40, 10, 100, 20),
        n_sequences=7,
        seed=61,
        shots=90,
    )
    assert run_experiment(cfg, jobs=2).rows() == run_experiment(cfg).rows()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_jobs_start_no_pool_when_the_process_may_run_on_one_cpu(monkeypatch):
    import concurrent.futures

    cfg = ExperimentConfig(
        gateset="pauli", noise={"id": "filter", "params": {}}, m_list=(10, 20), n_sequences=5, seed=3
    )
    serial = run_experiment(cfg)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        assert run_experiment(cfg, jobs=2).rows() == serial.rows()
    finally:
        os.sched_setaffinity(0, allowed)


@pytest.mark.parametrize(
    "gateset, noise, n",
    [
        ("pauli", {"id": "filter", "params": {}}, 30),  # fixed noise: one batch
        ("shelving", {"id": "shelving", "params": {"phi": 0.01}}, 12),  # one batch per length
        ("pauli", {"id": "filter", "params": {}}, 1),
        ("shelving", {"id": "shelving", "params": {"phi": 0.01}}, 1),
    ],
)
def test_one_pass_aggregate_is_the_per_length_mean_and_sem_bit_for_bit(
    monkeypatch, gateset, noise, n
):
    probabilities = {}

    def keeping(*args, **kwargs):
        probabilities.update(_lengths_probabilities(*args, **kwargs))
        return probabilities

    monkeypatch.setattr(protocol, "_lengths_probabilities", keeping)
    cfg = ExperimentConfig(
        gateset=gateset, noise=noise, m_list=(40, 10, 100, 20), n_sequences=n, seed=83
    )
    rows = run_experiment(cfg).rows()
    assert [r["m"] for r in rows] == list(cfg.m_list)
    for r in rows:
        ps = probabilities[r["m"]]
        sem = float(ps.std(ddof=1) / np.sqrt(len(ps))) if len(ps) > 1 else 0.0
        assert (r["mean"], r["sem"], r["n"]) == (float(ps.mean()), sem, n)
        assert r["sem"] != 0.0 if n > 1 else repr(r["sem"]) == "0.0"


def test_fixed_noise_evolves_all_lengths_in_one_pass(monkeypatch):
    calls = []
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    fig1 = ExperimentConfig(
        gateset="pauli",
        noise={"id": "filter", "params": {}},
        m_list=tuple(range(10, 101, 10)),
        n_sequences=30,
        seed=20260801,
    )
    run_experiment(fig1)
    # One step product per step of the longest sequence, not one per step of every length.
    assert len(calls) <= max(fig1.m_list)


def test_stream_seeding_does_not_grow_with_the_sequence_count(monkeypatch):
    constructed = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            constructed.append(kwargs.get("spawn_key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    fig1 = ExperimentConfig(
        gateset="pauli",
        noise={"id": "filter", "params": {}},
        m_list=tuple(range(10, 101, 10)),
        n_sequences=30,
        seed=20260801,
    )
    counts = []
    larger = ExperimentConfig(**{**fig1.to_dict(), "n_sequences": 60, "m_list": (5, *fig1.m_list)})
    for cfg in (fig1, larger):
        constructed.clear()
        run_experiment(cfg)
        counts.append(len(constructed))
    assert counts[0] == counts[1] < 10


def _traced_peak(cfg: ExperimentConfig, components=None) -> int:
    """The tracemalloc peak, in bytes, of a serial ``run_experiment(cfg, components=...)``."""
    tracemalloc.start()
    try:
        run_experiment(cfg, components=components)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stochastic_run_holds_one_length_of_noise_streams():
    # fig2 at 1000 sequences: one length's normals (13.7 MiB) and gate indices
    # (0.8 MiB), plus a slack of 3.5 MiB for the evolution's chunked work (about
    # 2.3 MiB, fixed by _CHUNK_SAMPLES) and the 32-byte seeding of each of the
    # run's 10,000 gate streams (0.3 MiB).  A state dict held for every noise
    # stream of the run would add about 4.5 MiB.
    cfg = replace(figure_config("fig2"), n_sequences=1000)
    run_experiment(replace(cfg, n_sequences=2))  # the one-off caches and imports
    one_length = 8 * cfg.n_sequences * max(cfg.m_list) * (1 + 18)
    assert _traced_peak(cfg) < one_length + 3.5 * 2**20


def test_shot_streams_hold_their_end_states_as_arrays():
    # Fixed noise with shots draws every length in one batch; each row's end state
    # is 48 bytes of arrays (state, increment and buffered word); a state dict
    # held for every row would take about 490 bytes a row.
    cfg = replace(figure_config("fig1"), n_sequences=300)
    run_experiment(replace(cfg, n_sequences=2, shots=100))
    rows = cfg.n_sequences * len(cfg.m_list)
    assert _traced_peak(replace(cfg, shots=100)) - _traced_peak(cfg) <= 64 * rows


#: (config, components or None for the config's own) of a run of each engine and
#: space: fixed noise on fig1 (d = 2), fig2 without noise (d = 3) and the blocks
#: design (d = 4), and fig2's shelving noise, evolved by _evolve_columns.
GUARDED_RUNS = {
    "fixed-d2": lambda: (figure_config("fig1"), None),
    "fixed-d3": lambda: (replace(figure_config("fig2"), noise=None), None),
    "fixed-d4": lambda: (
        replace(figure_config("fig2"), gateset="blocks.json", noise=None), (*design("blocks"), 0)
    ),
    "stochastic-d3": lambda: (figure_config("fig2"), None),
}


@pytest.mark.parametrize("shots", [None, 100])
@pytest.mark.parametrize("run", GUARDED_RUNS)
def test_the_memory_guard_bounds_the_traced_peak(run, shots):
    # 200 sequences a length, 2-11 MiB at the peak, where the arrays the memory guard
    # counts outweigh the fixed costs of a run: its traced peak is within that count.
    cfg, components = GUARDED_RUNS[run]()
    cfg = replace(cfg, n_sequences=200, shots=shots)
    components = components or _experiment_components(cfg)
    run_experiment(replace(cfg, n_sequences=2), components=components)  # one-off caches
    needed = protocol._shard_bytes(cfg, cfg.m_list, *components[:2])
    assert _traced_peak(cfg, components) <= needed


def test_a_top_level_script_runs_jobs_without_a_main_guard(tmp_path):
    # Shards run on threads, so a script needs no `if __name__ == "__main__":` guard.
    script = tmp_path / "script.py"
    script.write_text(
        "import json\n"
        "from leakbench import protocol\n"
        "from leakbench.cli import figure_config, main\n"
        "protocol._usable_cpus = lambda: 2  # the shards run in parallel on any machine\n"
        "cfg = figure_config('fig2')\n"
        "rows = [protocol.run_experiment(cfg, jobs=j).rows() for j in (2, 1)]\n"
        f"code = main(['reproduce', 'fig1', '--out', {str(tmp_path / 'out')!r}, '--jobs', '2'])\n"
        "print(json.dumps({'same': rows[0] == rows[1], 'code': code}))\n"
    )
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"same": True, "code": 0}


def test_run_experiment_rejects_out_of_range_probability():
    # A config refuses such an effect when it loads, so the SPAM is built in code.
    cfg = ExperimentConfig(gateset="pauli", noise=None, m_list=(2,), n_sequences=3, seed=5)
    gs, noise, spam, root = _experiment_components(cfg)
    components = (gs, noise, SpamSpec(rho=spam.rho, effect=2.0 * np.eye(2)), root)
    with pytest.raises(ValueError, match="outside"):
        run_experiment(cfg, components=components)


def test_run_experiment_noise_seed_decouples_from_protocol_seed():
    base = {
        "gateset": "pauli",
        "m_list": (5, 10),
        "n_sequences": 6,
    }
    with_fixed_noise = ExperimentConfig(
        noise={"id": "filter", "params": {"seed": 4}}, seed=100, **base
    )
    same_noise_other_seed = ExperimentConfig(
        noise={"id": "filter", "params": {"seed": 4}}, seed=200, **base
    )
    ds1 = run_experiment(with_fixed_noise)
    ds2 = run_experiment(same_noise_other_seed)
    # same noise model, different sequence draws
    assert not np.array_equal(ds1.means, ds2.means)


# ---------------------------------------------------------------------------
# Brute force and closed forms
# ---------------------------------------------------------------------------


def test_brute_force_m1_is_single_gate_mean():
    gs = lb.pauli_gateset()
    na, _ = lb.noise.sample_filter_assignment(RandomStream(21))
    manual = np.mean([run_sequence((i,), gs, na) for i in range(4)])
    assert abs(brute_force_expectation(1, gs, na) - manual) < 1e-14


def test_brute_force_rejects_stochastic_noise():
    gs = lb.shelving_gateset()
    na = NoiseAssignment(QUTRIT, sampler=lb.ShelvingParams())
    with pytest.raises(ValueError):
        brute_force_expectation(2, gs, na)


def enumerated_expectation(m, gs, na, spam=None):
    """Independent reference: the mean of run_sequence over all |G|^m sequences."""
    sequences = list(itertools.product(range(len(gs)), repeat=m))
    return sum(run_sequence(seq, gs, na, spam) for seq in sequences) / len(sequences)


def per_gate_shelving_noise(seed=5):
    """A fixed, different coherent-noise channel on each of the 8 shelving gates."""
    return NoiseAssignment(
        QUTRIT,
        channels=[
            lb.sample_coherent_noise(lb.ShelvingParams(), RandomStream(seed, key=(g,)))
            for g in range(8)
        ],
    )


def random_spam(rng):
    """SPAM on the qutrit with a mixed initial state and noisy prep and meas channels."""
    return SpamSpec(
        rho=random_density(3, rng),
        effect=QUTRIT.code_projector,
        prep=random_channel(QUTRIT, rng, scale=0.98),
        meas=random_channel(QUTRIT, rng, scale=0.99),
    )


@pytest.mark.parametrize(
    "case",
    ["pauli-filter", "shelving-coherent", "shelving-coherent-spam", "shelving-noiseless-spam"],
)
def test_exact_average_matches_enumeration(case):
    rng = np.random.default_rng(41)
    spam = random_spam(rng) if case.endswith("spam") else None
    if case == "pauli-filter":
        gs = lb.pauli_gateset()
        na, _ = lb.noise.sample_filter_assignment(RandomStream(21))
    else:
        gs = lb.shelving_gateset()
        na = None if "noiseless" in case else per_gate_shelving_noise()
    for m in range(1, 4):
        exact = brute_force_expectation(m, gs, na, spam)
        assert abs(exact - enumerated_expectation(m, gs, na, spam)) < 1e-13


def test_exact_expectations_any_order_equals_single_lengths():
    gs = lb.shelving_gateset()
    na = per_gate_shelving_noise(seed=8)
    m_list = (7, 2, 30, 2, 1)
    means = exact_expectations(m_list, gs, na)
    single = [brute_force_expectation(m, gs, na) for m in m_list]
    assert np.array_equal(means, single)
    assert abs(exact_expectations((0,), gs, na)[0] - 1.0) < 1e-14
    with pytest.raises(ValueError):
        exact_expectations((3, -1), gs, na)


@pytest.mark.parametrize("gateset", ["pauli", "shelving"])
def test_exact_average_at_long_length_matches_closed_form(gateset):
    gs = lb.gateset_by_id(gateset)
    ch = filter_z(0.03) if gateset == "pauli" else fixed_shelving_channel()
    na = NoiseAssignment.uniform(ch, len(gs))
    assert abs(brute_force_expectation(100, gs, na) - predicted_expectation(100, gs, ch)) < 1e-10


def test_single_exponential_closed_form_gate_independent():
    gs = lb.pauli_gateset()
    ch = lb.filter_channel(lb.FilterParams(p=0.03, bloch=(0.6, 0.0, 0.8)))
    na = NoiseAssignment.uniform(ch, 4)
    params = decay_parameters(gs, ch)
    assert abs(params["decay"] - incoherent_survival(ch)) < 1e-12
    for m in range(1, 6):
        brute = brute_force_expectation(m, gs, na)
        assert abs(brute - predicted_expectation(m, gs, ch)) < 1e-12


def test_double_exponential_closed_form_gate_independent():
    gs = lb.shelving_gateset()
    ch = fixed_shelving_channel()
    na = NoiseAssignment.uniform(ch, 8)
    params = decay_parameters(gs, ch)
    plus, minus = decay_eigenvalues(transfer_block(ch))
    assert abs(params["decay_plus"] - plus) < 1e-12
    assert abs(params["decay_minus"] - minus) < 1e-12
    for m in range(1, 6):
        brute = brute_force_expectation(m, gs, na)
        assert abs(brute - predicted_expectation(m, gs, ch)) < 1e-10


def test_gate_dependent_remainder_bounded_by_epsilon():
    gs = lb.pauli_gateset()
    na, _ = lb.noise.sample_filter_assignment(RandomStream(23))
    eps = lb.gate_dependence_epsilon(gs, na)
    avg = lb.average_noise(na)
    assert eps > 0
    for m in range(1, 5):
        brute = brute_force_expectation(m, gs, na)
        assert abs(brute - predicted_expectation(m, gs, avg)) <= m * eps


def test_twirl_sandwich_identity():
    for gs, ch in (
        (lb.pauli_gateset(), filter_z(0.04)),
        (lb.shelving_gateset(), fixed_shelving_channel()),
    ):
        g_bar = lb.twirl(gs).matrix
        sandwich = g_bar @ ch.liouville @ g_bar
        space = gs.space
        if space.d2 == 0:
            vecs = [vec(np.eye(space.d) / np.sqrt(space.d))]
        else:
            vecs = [
                vec(space.code_projector / np.sqrt(space.d1)),
                vec(space.leak_projector / np.sqrt(space.d2)),
            ]
        block = lb.transfer_matrix(ch)
        expected = np.zeros_like(sandwich)
        for a, va in enumerate(vecs):
            for b, vb in enumerate(vecs):
                expected += block[a, b] * np.outer(va, vb.conj())
        assert np.max(np.abs(sandwich - expected)) < 1e-10


def test_closed_form_with_spam_channels():
    gs = lb.shelving_gateset()
    ch = fixed_shelving_channel(seed=33)
    na = NoiseAssignment.uniform(ch, 8)
    rng = np.random.default_rng(77)
    spam = SpamSpec(
        rho=SpamSpec.ideal(QUTRIT).rho,
        effect=QUTRIT.code_projector,
        prep=random_channel(QUTRIT, rng, scale=0.98),
        meas=random_channel(QUTRIT, rng, scale=0.99),
    )
    for m in range(1, 5):
        brute = brute_force_expectation(m, gs, na, spam)
        assert abs(brute - predicted_expectation(m, gs, ch, spam)) < 1e-10


def test_spam_vectors_are_computed_once_read_only_and_left_by_copies():
    rng = np.random.default_rng(78)
    spam = SpamSpec(
        rho=random_density(3, rng),
        effect=QUTRIT.code_projector,
        prep=random_channel(QUTRIT, rng, scale=0.98),
        meas=random_channel(QUTRIT, rng, scale=0.99),
    )
    state = spam.prep.liouville @ vec(spam.rho)
    effect = vec(spam.effect).conj() @ spam.meas.liouville
    for vector, fresh, read in ((spam.state_vector(), state, spam.state_vector),
                                (spam.effect_vector(), effect, spam.effect_vector)):
        assert vector.tobytes() == fresh.tobytes() and read() is vector
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 2.0
    for other in (pickle.loads(pickle.dumps(spam)), copy.deepcopy(spam), copy.copy(spam)):
        assert other.state_vector().tobytes() == state.tobytes()
        assert other.effect_vector().tobytes() == effect.tobytes()


def _eigen_sum(params: dict, ms: np.ndarray) -> np.ndarray:
    """sum_k amplitude_k decay_k^(m-1) of the parameters of :func:`decay_parameters`."""
    names = list(params)
    half = len(names) // 2
    return sum(
        params[a] * params[d] ** (ms - 1) for a, d in zip(names[:half], names[half:])
    )


@pytest.mark.parametrize(
    "gateset, channel",
    [
        ("pauli", lambda: filter_z(0.03)),
        ("pauli", lambda: Channel(QUBIT, [np.eye(2)])),
        ("shelving", fixed_shelving_channel),
        ("shelving", lambda: lb.sample_coherent_noise(lb.ShelvingParams(), RandomStream(5))),
        ("shelving", lambda: Channel(QUTRIT, [np.eye(3)])),
    ],
    ids=["filter", "pauli-identity", "shelving-fixed", "shelving-tp", "shelving-identity"],
)
def test_predicted_expectation_matches_eigen_sum(gateset, channel):
    gs, ch = lb.gateset_by_id(gateset), channel()
    ms = np.arange(1, 101)
    params = decay_parameters(gs, ch)
    predicted = predicted_expectation(ms, gs, ch)
    assert predicted.shape == ms.shape
    assert np.max(np.abs(predicted - _eigen_sum(params, ms))) < 1e-12
    assert predicted_expectation(7, gs, ch) == predicted[6]


def test_decay_parameters_named_as_the_fit_models_largest_decay_first():
    single = decay_parameters(lb.pauli_gateset(), filter_z(0.03))
    assert list(single) == ["amplitude", "decay"]
    double = decay_parameters(lb.shelving_gateset(), fixed_shelving_channel())
    assert list(double) == ["amp_plus", "amp_minus", "decay_plus", "decay_minus"]
    assert double["decay_plus"] > double["decay_minus"]
    assert all(type(v) is float for v in (*single.values(), *double.values()))


def test_predicted_expectation_rejects_length_below_one():
    with pytest.raises(ValueError, match=">= 1"):
        predicted_expectation(0, lb.pauli_gateset(), filter_z(0.03))


def test_decay_parameters_space_mismatch():
    with pytest.raises(ValueError):
        decay_parameters(lb.pauli_gateset(), Channel(QUTRIT, [np.eye(3)]))


def test_decay_parameters_rejects_a_defective_block():
    # Code and leak levels both kept with probability 0.9, and the leak level
    # seeping into |0> with probability 0.05: the transfer block is the
    # defective block [[0.9, 0.0354], [0, 0.9]], whose expectation has an
    # m 0.9^(m-2) term: eigenvector amplitudes of about +-1e14 would sum to
    # 0.453 at m = 1, not 0.475.
    kraus = np.zeros((2, 3, 3), dtype=complex)
    kraus[0] = np.sqrt(0.9) * np.eye(3)
    kraus[1, 0, 2] = np.sqrt(0.05)
    gs, ch = lb.shelving_gateset(), Channel(QUTRIT, kraus)
    spam = SpamSpec(rho=np.diag([0.5, 0.0, 0.5]).astype(complex), effect=QUTRIT.code_projector)
    assert np.allclose(lb.transfer_matrix(ch), [[0.9, np.sqrt(0.05 / 40)], [0.0, 0.9]])
    with pytest.raises(ValueError, match="not diagonalizable"):
        decay_parameters(gs, ch, spam)
    assert abs(predicted_expectation(1, gs, ch, spam) - 0.475) < 1e-12


def test_spam_config_roundtrip_and_execution():
    import json

    from leakbench.liouville import channel_to_dict, matrix_to_pairs
    from leakbench.protocol import spam_from_dict

    excited = np.diag([0.0, 1.0]).astype(complex)
    doc = {"rho": matrix_to_pairs(excited), "effect": matrix_to_pairs(excited)}
    spam = spam_from_dict(doc, QUBIT)
    assert np.allclose(spam.rho, excited)
    assert np.allclose(spam.effect, excited) and spam.prep is None is spam.meas
    prep = lb.filter_channel(lb.FilterParams(p=0.2, bloch=(0.0, 0.0, 1.0)))
    rebuilt = spam_from_dict(json.loads(json.dumps({**doc, "prep": channel_to_dict(prep)})), QUBIT)
    assert np.array_equal(rebuilt.prep.liouville, prep.liouville) and rebuilt.meas is None
    gs = lb.pauli_gateset()
    # identity gate keeps |1><1| on itself; X flips it off the effect
    assert abs(run_sequence((0,), gs, None, spam) - 1.0) < 1e-12
    assert abs(run_sequence((1,), gs, None, spam)) < 1e-12
    cfg = ExperimentConfig(
        gateset="pauli", noise=None, m_list=(2,), n_sequences=4, seed=5, spam=doc
    )
    ds = run_experiment(cfg)
    assert np.all((ds.means >= 0) & (ds.means <= 1))
