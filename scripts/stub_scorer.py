#!/usr/bin/env python3
"""Reference external scorer speaking the wire protocol on stdin/stdout.

Request: one line "SMILES <smiles>". Response: one line "SCORE <decimal>".

Modes:
  --synthetic     score with the in-package synthetic oracle (default)
  --energy E      always answer E
  --garbage       emit an unparseable reply
  --fail          exit nonzero without answering
  --hang S        sleep S seconds before answering (timeout testing)
"""

import argparse
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--synthetic", action="store_true")
    ap.add_argument("--energy", type=float, default=None)
    ap.add_argument("--garbage", action="store_true")
    ap.add_argument("--fail", action="store_true")
    ap.add_argument("--hang", type=float, default=0.0)
    args = ap.parse_args()

    lines = sys.stdin.read().splitlines()
    if not lines or not lines[0].startswith("SMILES "):
        print("ERROR bad request", file=sys.stderr)
        return 2
    smiles = lines[0].split(None, 1)[1]

    if args.hang:
        time.sleep(args.hang)
    if args.fail:
        print("simulated failure", file=sys.stderr)
        return 1
    if args.garbage:
        print("this is not a score")
        return 0
    if args.energy is not None:
        print(f"SCORE {args.energy!r}")
        return 0

    from molflow.chem import parse_smiles
    from molflow.docking import synthetic_score

    print(f"SCORE {synthetic_score(parse_smiles(smiles))!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
