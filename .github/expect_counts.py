"""Check the case counts of a `qbc verify --json` report.

    python .github/expect_counts.py REPORT PASSED

Exits 0 when the report's counts are exactly PASSED passed cases and no
failed or skipped one, so a case that failed, turned skipped or vanished
fails the check.  A missing or malformed report fails it too.  Every
failure exits 1 with the reason on stderr.
"""

import json
import sys


def main(argv) -> None:
    if len(argv) != 3 or not argv[2].isdigit():
        sys.exit(f"usage: {argv[0]} REPORT PASSED")
    path, expected = argv[1], {"fail": 0, "pass": int(argv[2]), "skipped": 0}
    try:
        with open(path) as fh:
            counts = json.load(fh)["counts"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.exit(f"{path}: no report counts: {exc!r}")
    if counts != expected:
        sys.exit(f"{path}: counts {counts}, expected {expected}")


if __name__ == "__main__":
    main(sys.argv)
