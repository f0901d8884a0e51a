#!/usr/bin/env python3
"""Regenerate the paper's tables from the full 17-benchmark workload.

The first run simulates the whole experiment grid (a few minutes);
results are cached under ~/.cache/repro-pldi95, so later runs are
instant.  Pass table numbers to print a subset:

    python examples/paper_tables.py           # all tables
    python examples/paper_tables.py 5 7       # just Tables 5 and 7
"""

import sys

from repro.harness import ALL_TABLES, ExperimentRunner


def main() -> None:
    wanted = [int(arg) for arg in sys.argv[1:]] or sorted(ALL_TABLES)
    runner = ExperimentRunner(verbose=True)
    for number in wanted:
        print()
        print(ALL_TABLES[number](runner).format())
        print()


if __name__ == "__main__":
    main()
