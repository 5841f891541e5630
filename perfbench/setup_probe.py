"""The set-up a CLI user pays before a job starts: import poissonenv in a
fresh interpreter, then parse and validate the job's input files.

    python3 perfbench/setup_probe.py SRC_DIR ALGEBRA [MODULE ...]

run.py times this script from outside, interpreter start-up included.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    src, algebra, *modules = argv
    sys.path.insert(0, src)
    from poissonenv import cli
    from poissonenv.fileformat import parse_module_file

    A = cli.load_algebra(algebra)
    for path in modules:
        parse_module_file(Path(path).read_text("utf-8"), A)


if __name__ == "__main__":
    main(sys.argv[1:])
