"""The input contract: every input document is read through its schema table.

A seeded mutation test walks each base document alongside its tables. At
every object level it adds an unknown key, and for every key of the table it
drops the key and swaps its value for one of ``VALUES``. Each mutated
document goes through ``main()`` in process. The exit code must be 0, 2, 3
or 4, no exception may escape, and an exit 2 must name the mutated key by
its full path. A key added to a table is covered with no change here.
"""

import contextlib
import copy
import csv
import functools
import io
import json
import os
import random
import resource
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import design, run_python

from leakbench import gatesets, liouville, noise, protocol
from leakbench.cli import main
from leakbench.liouville import channel_to_dict, matrix_to_pairs
from leakbench.protocol import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "leakbench" / "scenarios"
BUNDLED = {
    "fig1": SCENARIOS / "fig1.json",
    "fig2": SCENARIOS / "fig2.json",
    "noiseless": ROOT / "configs" / "noiseless.json",
}

#: A wrong-shape matrix: three [re, im] pairs, square for no dimension.
WRONG_SHAPE = [[1, 0]] * 3

#: The values a key's value is swapped for; the string and the negative value
#: are drawn per swap.
VALUES = ("string", True, None, [], {}, float("nan"), float("inf"), "negative", WRONG_SHAPE, 2**63)

#: Messages that are Python's own wording, never a config error's.
PYTHON_WORDING = (
    "string indices must be integers",
    "argument must be",
    "object is not iterable",
    "invalid literal",
    "object is not subscriptable",
    "Traceback",
)

#: The table of the section that a parser reads, for parsers that are not a
#: ``section`` or a ``list_of`` one.
NESTED = {
    liouville.channel_from_dict: liouville.CHANNEL_FIELDS,
    noise.read_noise_spec: noise.NOISE_FIELDS,
}


def nested(parser):
    """The table of the section ``parser`` reads, or of each item of its list; None for a leaf."""
    if isinstance(parser, functools.partial):
        if parser.func is liouville.read_fields:
            return parser.keywords["fields"]
        if parser.func is liouville.items:
            return nested(parser.keywords["parse"])
    return NESTED.get(parser)


def dotted(keys) -> str:
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
    return path


def object_levels(doc, fields, rng, keys=()):
    """(keys, table) of every object level of ``doc``, one random item of each list."""
    yield keys, fields
    for key, (parser, _) in fields.items():
        value = doc.get(key)
        if fields is noise.NOISE_FIELDS and key == "params":
            child = noise.NOISE_PARAMS[doc.get("id") or "none"]
        else:
            child = nested(parser)
        if child is None or value is None:
            continue
        if isinstance(value, list):
            i = rng.randrange(len(value))
            yield from object_levels(value[i], child, rng, keys + (key, i))
        else:
            yield from object_levels(value, child, rng, keys + (key,))


def lookup(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def swapped(value, rng):
    if value == "string":
        return "".join(rng.choice("abcxyz.0") for _ in range(rng.randrange(1, 6)))
    if value == "negative":
        return -rng.choice([1, 2.5, 10**6])
    return value


def mutations(doc, fields, rng):
    """(document, keys of the mutated key) for every mutation of ``doc``."""
    for keys, table in list(object_levels(doc, fields, rng)):
        mutant = copy.deepcopy(doc)
        name = "unknown_" + "".join(rng.choice("abcdef") for _ in range(4))
        lookup(mutant, keys)[name] = 1
        yield mutant, keys + (name,)
        for key in table:
            if key in lookup(doc, keys):
                mutant = copy.deepcopy(doc)
                del lookup(mutant, keys)[key]
                yield mutant, keys + (key,)
            for value in VALUES:
                mutant = copy.deepcopy(doc)
                lookup(mutant, keys)[key] = swapped(value, rng)
                yield mutant, keys + (key,)


def run(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check(code: int, err: str, path: str, where: str = "config error: "):
    assert code in (0, 2, 3, 4), (path, code, err)
    if code == 2:
        assert err.startswith(where) and path in err, (path, err)
        assert not any(words in err for words in PYTHON_WORDING), (path, err)


def small(doc: dict) -> dict:
    """``doc`` with few lengths and sequences: reading does not depend on size."""
    return {**doc, "m_list": [1, 2, 3], "n_sequences": 2}


def spam_config() -> dict:
    excited = np.diag([0.0, 1.0])
    prep = noise.filter_channel(noise.FilterParams(p=0.2, bloch=(0.0, 0.6, 0.8)))
    spam = {
        "rho": matrix_to_pairs(excited),
        "effect": matrix_to_pairs(np.diag([0.9, 0.1])),
        "prep": channel_to_dict(prep),
        "meas": channel_to_dict(liouville.Channel(prep.space, [np.eye(prep.space.d)])),
    }
    return {**small(json.loads(BUNDLED["noiseless"].read_text())), "spam": spam}


def gateset_doc() -> dict:
    gs = gatesets.pauli_gateset()
    return {"d1": 2, "d2": 0, "label": "paulis", "gates": [matrix_to_pairs(g) for g in gs.gates]}


def simulate(tmp_path, doc) -> tuple:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return run(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("base", ["fig1", "fig2", "noiseless", "spam"])
def test_mutated_configs_exit_cleanly_naming_the_key(tmp_path, base):
    rng = random.Random(f"config-{base}")
    doc = spam_config() if base == "spam" else small(json.loads(BUNDLED[base].read_text()))
    assert simulate(tmp_path, doc)[0] == 0
    for mutant, keys in mutations(doc, protocol.EXPERIMENT_FIELDS, rng):
        check(*simulate(tmp_path, mutant), dotted(keys))


def test_mutated_gateset_files_exit_cleanly_naming_the_key(tmp_path):
    rng = random.Random("gateset")
    gates = tmp_path / "gates.json"
    config = {**small(json.loads(BUNDLED["noiseless"].read_text())), "gateset": str(gates)}
    doc = gateset_doc()
    gates.write_text(json.dumps(doc))
    assert simulate(tmp_path, config)[0] == 0
    for mutant, keys in mutations(doc, gatesets.GATESET_FIELDS, rng):
        gates.write_text(json.dumps(mutant))
        check(*simulate(tmp_path, config), dotted(keys))


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory) -> Path:
    """The output directory of ``reproduce fig1``: its decay.json and decay.csv."""
    out = tmp_path_factory.mktemp("fig1")
    assert run(["reproduce", "fig1", "--out", str(out)])[0] == 0
    return out


def fit(path: Path) -> tuple:
    return run(["fit", str(path), "--model", "single-exp", "--out", str(path.parent / "fit.json")])


def test_mutated_decay_json_exits_cleanly_naming_the_key(tmp_path, reproduced):
    rng = random.Random("decay.json")
    doc = json.loads((reproduced / "decay.json").read_text())
    path = tmp_path / "decay.json"
    for mutant, keys in mutations(doc, protocol.DATASET_FIELDS, rng):
        path.write_text(json.dumps(mutant))
        check(*fit(path), dotted(keys), "config error: cannot read dataset: ")


def test_mutated_decay_csv_exits_cleanly_naming_the_key(tmp_path, reproduced):
    rng = random.Random("decay.csv")
    with open(reproduced / "decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    path = tmp_path / "decay.csv"

    def fit_rows(rows, row, key):
        columns = list(dict.fromkeys(k for r in rows for k in r))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, columns)
            writer.writeheader()
            writer.writerows(rows)
        check(*fit(path), f"dataset[{row}].{key}", "config error: cannot read dataset: ")

    fit_rows([{**r, "unknown": "1"} for r in rows], 0, "unknown")
    for key in rows[0]:
        fit_rows([{k: v for k, v in r.items() if k != key} for r in rows], 0, key)
        row = rng.randrange(len(rows))
        for value in VALUES:
            value = swapped(value, rng)
            cell = value if isinstance(value, str) else json.dumps(value)
            fit_rows([{**r, key: cell} if i == row else r for i, r in enumerate(rows)], row, key)


#: Each bundled config's to_dict(), as canonical JSON, and its config_hash().
PINNED = {
    "fig1": (
        '{"gateset":"pauli","m_list":[10,20,30,40,50,60,70,80,90,100],"n_sequences":30,'
        '"noise":{"id":"filter","params":{}},"seed":20260801,"shots":null,"spam":null}',
        "724c4c91f7002addbb2329263fc9e8ab9ad09d5d42949f5155af2ba09b7da490",
    ),
    "fig2": (
        '{"gateset":"shelving","m_list":[10,20,30,40,50,60,70,80,90,100],"n_sequences":200,'
        '"noise":{"id":"shelving","params":{"phi":0.01,"sigma_gamma":0.06}},"seed":101,'
        '"shots":null,"spam":null}',
        "67fc8fb14b6c984ba0d6764c58ab0d6f540d5b6f2021ee8bd49813b22e88089f",
    ),
    "noiseless": (
        '{"gateset":"pauli","m_list":[10,20,30,40,50],"n_sequences":10,"noise":null,'
        '"seed":1,"shots":null,"spam":null}',
        "7585b8a19ef1f9bf41596c4690b48d088c3af3b9fa0378ce0862a063b7d2d9f7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_configs_keep_their_provenance(name):
    cfg = ExperimentConfig.from_dict(json.loads(BUNDLED[name].read_text()))
    blob, digest = PINNED[name]
    assert json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":")) == blob
    assert cfg.config_hash() == digest


@pytest.mark.parametrize("base", ["fig1", "fig2"])
def test_lengths_whose_arrays_cannot_fit_exit_2_before_allocating(tmp_path, base):
    # 10^12 steps per sequence: terabytes of gate indices, refused before any is drawn.
    doc = {**json.loads(BUNDLED[base].read_text()), "m_list": [10, 10**12]}
    started = time.monotonic()
    code, err = simulate(tmp_path, doc)
    assert time.monotonic() - started < 1.0
    assert code == 2 and err.startswith("config error: "), err
    assert "m_list" in err and "n_sequences" in err, err
    assert not (tmp_path / "out").exists()


#: The bytes fig2's shelving noise holds beside one length's gate indices, when its
#: lengths are ``ms``: that length's 18 normals a step, 32 B of seeds for each gate and
#: noise stream and 8 B for each probability, two work arrays of 9 complex entries and
#: the kernel's 320 B for each draw of the largest chunk (20 steps of 200 rows), and
#: for each row 3 evolving columns (9 complex entries), their 27 products and 9 sums.
def fig2_bytes_beside_indices(ms) -> int:
    return 200 * max(ms) * 18 * 8 + 200 * len(ms) * 72 + 4000 * (2 * 16 * 9 + 320) + 200 * 16 * 45


@pytest.mark.parametrize("base, index_bytes", [("fig1", 30 * 10 * 100 * 8), ("fig2", 200 * 100 * 8)])
def test_the_memory_guard_counts_indices_and_normals(monkeypatch, base, index_bytes):
    # fig1 holds every length's indices in one batch, and per row its stream seeds (32 B),
    # its state and einsum output (2 x 4 complex), its probability (16 B), eight int64 of
    # bookkeeping and a gathered 4 x 4 complex step matrix, plus the 128 KiB word table;
    # fig2 one length's indices plus what fig2_bytes_beside_indices counts.
    cfg = ExperimentConfig.from_dict(json.loads(BUNDLED[base].read_text()))
    components = protocol._experiment_components(cfg)
    fixed = 30 * 10 * (32 + 2 * 16 * 4 + 16 + 8 * 8 + 16 * 4**2) + 16 * 2**13
    stochastic = components[1].stochastic
    needed = index_bytes + (fig2_bytes_beside_indices(cfg.m_list) if stochastic else fixed)
    monkeypatch.setattr(protocol, "_memory_limit", lambda: needed - 1)
    with pytest.raises(liouville.ConfigError, match="m_list and n_sequences"):
        protocol.run_experiment(cfg, components=components)
    monkeypatch.setattr(protocol, "_memory_limit", lambda: needed)
    assert len(protocol.run_experiment(cfg, components=components).rows()) == 10


def test_the_memory_guard_counts_the_fixed_noise_gather(monkeypatch):
    # On the (4, 2) design a row's gathered 36 x 36 complex step matrix takes 20,736
    # bytes, its five int64 gate indices 40: the gather alone trips the limit.  A row
    # also holds its seeds, state, einsum output, probability and eight int64, and the
    # word table holds the 128 one-gate words.
    gs, noise, spam = design("two-qubit")
    cfg = ExperimentConfig(gateset="two-qubit.json", m_list=(5, 3), n_sequences=20, seed=1)
    components = (gs, noise, spam, None)
    rows, index_bytes = 2 * 20, 2 * 20 * 5 * 8
    needed = index_bytes + rows * (32 + 2 * 16 * 36 + 16 + 8 * 8 + 16 * 6**4) + 16 * 128 * 6**4
    monkeypatch.setattr(protocol, "_memory_limit", lambda: needed - 1)
    assert index_bytes < needed - 1
    with pytest.raises(liouville.ConfigError, match="m_list and n_sequences"):
        protocol.run_experiment(cfg, components=components)
    monkeypatch.setattr(protocol, "_memory_limit", lambda: needed)
    assert len(protocol.run_experiment(cfg, components=components).rows()) == 2


def test_the_memory_guard_counts_every_concurrent_shard(monkeypatch):
    # The limit is what fig2's serial run holds: each of two shards fits it alone, as the
    # shard of the lengths 10, 30, ..., 90 holds less and the other's longest length is
    # the serial run's, but the shards, run at once, do not.
    cfg = ExperimentConfig.from_dict(json.loads(BUNDLED["fig2"].read_text()))
    components = protocol._experiment_components(cfg)
    serial = 200 * 100 * 8 + fig2_bytes_beside_indices(cfg.m_list)
    monkeypatch.setattr(protocol, "_memory_limit", lambda: serial)
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
    assert len(protocol.run_experiment(cfg, components=components).rows()) == 10

    def no_draw(*args, **kwargs):
        raise AssertionError("a stream was seeded")

    monkeypatch.setattr(protocol, "pcg64_seeds", no_draw)
    with pytest.raises(liouville.ConfigError, match="m_list and n_sequences"):
        protocol.run_experiment(cfg, jobs=2, components=components)


def test_the_memory_limit_is_the_address_space_limit_when_lower():
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert protocol._memory_limit() <= physical
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = min(physical, 2**40, physical if hard == resource.RLIM_INFINITY else hard) // 2
    # The limit is lowered in a child process only, after its imports.
    result = run_python("-c", (
        "import resource; from leakbench import protocol; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {hard})); "
        "print(protocol._memory_limit())"
    ))
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) == limit
