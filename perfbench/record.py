"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one untraced pass over each workload's whole input pool with the
current ``src/`` and merges the outputs into ``reference.json``.  The
references are recorded once, at the commit that defined the benchmark;
re-recording them would hide a change in the program's outputs.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, WORKLOADS, provenance, spawn

#: Input seeds a workload seed can select (see ``run.workload_inputs``).
POOLS = {
    "fig2-coherent": range(1, 17),
    "fig1-sweep": range(1, 513),
    "exact-oracle": range(1, 65),
}


def sound(output: dict) -> bool:
    """A reference output must be a completed operation whose own checks held."""
    if "error" in output:
        return False
    if "rc" in output:
        return output["rc"] in (0, 1)
    if "within_bound" in output:
        return output["within_bound"]
    return all(output["passed"].values())


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for workload in workloads:
        inputs = list(POOLS[workload])
        result = spawn(workload, inputs, deadline=time.monotonic() + 3600)
        bad = [
            (seed, key)
            for seed, ops in result["outputs"].items()
            for key, out in ops.items()
            if not sound(out)
        ]
        if bad:
            print(f"{workload}: unsound reference outputs {bad[:10]}", file=sys.stderr)
            return 1
        reference[workload] = result["outputs"]
        reference.setdefault("recorded_at", {})[workload] = provenance(
            workload, None, inputs, result
        )
        print(f"{workload}: recorded {len(inputs)} inputs in {result['run_s']:.1f} s")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
