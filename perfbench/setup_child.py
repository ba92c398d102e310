"""One set-up of a workload in a fresh interpreter, timed by the parent from spawn to exit.

    python perfbench/setup_child.py WORKLOAD SEED

Imports the package the workload drives (`fiblti`, or `fiblti.cli` for
cli-oneshot) and builds the seeded systems of the first round, then exits.
"""

import sys

from family import family


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "cli-oneshot":
        import fiblti.cli  # noqa: F401
        from workloads import cli_specs

        cli_specs(family(seed, 0))
        return
    import fiblti

    for spec in family(seed, 0):
        spec.build(fiblti)


if __name__ == "__main__":
    main()
