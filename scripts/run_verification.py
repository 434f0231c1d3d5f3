#!/usr/bin/env python3
"""Run the full verification suite and write text and JSON reports.

Usage: python scripts/run_verification.py [--out DIR] [--trunc D]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chowcalc import checks  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--trunc", type=int, default=4)
    args = parser.parse_args()

    try:
        config = checks.SuiteConfig(trunc=args.trunc)
    except ValueError as exc:
        parser.error(str(exc))
    results = checks.run_suite(config=config)
    text = checks.format_text(results)
    print(text)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "verification.txt").write_text(text + "\n")
    (out / "verification.json").write_text(checks.format_json(results) + "\n")
    print(f"reports written to {out}/")
    return checks.exit_code(results)


if __name__ == "__main__":
    sys.exit(main())
