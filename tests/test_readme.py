import re
from pathlib import Path

import numpy as np

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
    assert abs(scope["result"].params["decay"] - params["decay_minus"]) < 3e-3
