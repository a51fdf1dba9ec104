"""Set-up probe: import the CLI, build its parser and load a workload's config.

    python3 perfbench/probe.py <lrsim arguments>

The benchmark times this whole process as the set-up cost every command pays
before its own work. It prints one JSON line describing the interpreter and
the package it imported, which the benchmark records as run metadata.
"""

import json
import platform
import sys

import numpy as np

import lrsim
import lrsim.cli
import lrsim.kernels
from lrsim.genmodel import load_world


def main(argv: list[str]) -> int:
    args = lrsim.cli.build_parser().parse_args(argv)
    if args.config:  # both loaders validate the world
        load_world(args.config)
    else:
        lrsim.cli.default_world()
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": lrsim.kernels.ACTIVE_BACKEND,
        "lrsim_file": lrsim.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
