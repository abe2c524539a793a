import re
from pathlib import Path

import numpy as np

from leakbench import cli, gatesets, liouville, noise, protocol

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_snippet() -> str:
    """The Python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs():
    scope: dict = {}
    exec(compile(library_use_snippet(), str(README), "exec"), scope)
    lb = scope["lb"]
    assert abs(lb.transfer_matrix(scope["ch"])[0, 0] - 0.98) < 1e-12
    params = lb.decay_parameters(scope["gs"], scope["avg"])
    assert abs(params["decay_plus"] - 1.0) < 1e-9
    assert abs(params["decay_minus"] - 0.989) < 1e-3
    decays = np.linalg.eigvals(lb.transfer_matrix(scope["avg"]))
    assert np.allclose(sorted(decays), [params["decay_minus"], params["decay_plus"]], atol=1e-12)
    assert abs(scope["model"].decay - params["decay_minus"]) < 1e-12
    assert np.array_equal(scope["model"].transfer, lb.transfer_matrix(scope["avg"]))
    assert abs(scope["result"].params["decay"] - params["decay_minus"]) < 3e-3


#: The README heading of each input table, and the schema table it mirrors.
SCHEMA_HEADINGS = {
    "Top level": protocol.EXPERIMENT_FIELDS,
    "`noise`": noise.NOISE_FIELDS,
    "`noise.params` of `filter`": noise.NOISE_PARAMS["filter"],
    "`noise.params.gates[i]`": noise.FILTER_GATE_FIELDS,
    "`noise.params` of `shelving`": noise.NOISE_PARAMS["shelving"],
    "`spam`": protocol.SPAM_FIELDS,
    "Channel": liouville.CHANNEL_FIELDS,
    "Gate set": gatesets.GATESET_FIELDS,
    "`decay.json`": protocol.DATASET_FIELDS,
    "Dataset row": protocol.DATASET_ROW_FIELDS,
}


def readme_table_keys() -> dict:
    """{heading: the keys in the first column of the table under that ### heading}."""
    tables = {}
    for block in README.read_text(encoding="utf-8").split("\n### ")[1:]:
        heading, _, body = block.partition("\n")
        rows = re.findall(r"^\| `([^`]+)` \|", body.split("\n## ", 1)[0], re.M)
        if rows:
            tables[heading.strip()] = rows
    return tables


def test_every_schema_table_has_a_readme_heading():
    tables = [value for module in (liouville, gatesets, noise, protocol)
              for name, value in vars(module).items() if name.endswith("_FIELDS")]
    tables += [fields for fields in noise.NOISE_PARAMS.values() if fields]
    mirrored = list(SCHEMA_HEADINGS.values())
    assert all(any(table is m for m in mirrored) for table in tables)


def test_readme_tables_mirror_the_schema():
    tables = readme_table_keys()
    for heading, fields in SCHEMA_HEADINGS.items():
        assert tables.get(heading) == list(fields), heading


def test_readme_exit_codes_are_the_cli_error_table():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Exit codes are a stable contract: (.*?)\.", text).group(1)
    listed = {int(code): words for code, words in re.findall(r"`(\d+)` ([^,]+)", sentence)}
    errors = {code: words for _, words, code in cli.ERRORS}
    verdicts = {cli.EXIT_OK: "success", cli.EXIT_PROPERTY_FAILURE: "property/comparison failure"}
    assert listed == {**verdicts, **errors}
    assert len(errors) == len(cli.ERRORS)
