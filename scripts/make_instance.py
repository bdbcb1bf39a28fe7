#!/usr/bin/env python3
"""Generate random instance files for experiments.

By default rejection-samples until the instance is feasible in both stages
(so `tropsched solve` exits 0 on it); pass --any to skip that.
"""

import argparse
import sys

import numpy as np

from tropsched.instances import random_feasible_instance, random_instance
from tropsched.io_cli import write_instance


def _int_from(low):
    # An argparse type for an int >= low: a size below 1 or a negative seed
    # would otherwise fail inside NumPy with a traceback.
    def at_least(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return at_least


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="path of the instance JSON to write")
    parser.add_argument("-m", type=_int_from(1), default=2, help="number of tasks")
    parser.add_argument("-n", type=_int_from(1), default=3, help="number of workers")
    parser.add_argument("--seed", type=_int_from(0), default=0)
    parser.add_argument("--any", action="store_true", help="do not require feasibility")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    if args.any:
        inst = random_instance(rng, args.m, args.n)
    else:
        try:
            inst = random_feasible_instance(rng, args.m, args.n)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    write_instance(inst, args.output)
    print(f"wrote {args.m}x{args.n} instance to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
