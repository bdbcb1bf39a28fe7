#!/usr/bin/env python3
"""Compare two result files of the same workload and seed, e.g. parent and change.

    python3 bench/compare.py before.json after.json

Refuses, with exit code 1, when the two runs did not start from the same
inputs: ``verify_small`` draws its feasible instances with the package's
own ``solve``, so a commit that changes what ``solve`` returns can change
the inputs, and then the comparison means nothing.  Otherwise prints each
metric of both runs and their ratio.
"""

import json
import sys


def compare(before: dict, after: dict) -> list[str]:
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            raise ValueError(f"{key} differs: {before[key]!r} vs {after[key]!r}")
    if before["environment"]["seed"] != after["environment"]["seed"]:
        raise ValueError("seed differs")
    if before["inputs"]["first_batch_sha256"] != after["inputs"]["first_batch_sha256"]:
        raise ValueError("input digests differ: the two runs did not send the same inputs")
    lines = []
    for name, b in before["metrics"].items():
        a = after["metrics"][name]["value"]
        ratio = a / b["value"] if b["value"] else float("nan")
        lines.append(f"{name:44s} {b['value']:12.6g} {a:12.6g} {b['unit']:6s} x{ratio:.3f}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(open(path).read()) for path in args)
    try:
        lines = compare(before, after)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
