#!/usr/bin/env python3
"""Rewrite the golden transcripts under tests/golden/ from this tree's
output, after a deliberate change of output; tests/test_golden.py
regenerates the same files and compares them byte for byte.

Usage: python scripts/update_golden.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402


def main() -> None:
    for name, render in test_golden.RENDER.items():
        (test_golden.GOLDEN / name).write_text(render())
        print(f"wrote tests/golden/{name}")


if __name__ == "__main__":
    main()
