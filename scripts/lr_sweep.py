"""Sweep the descent demo across learning rates.

Fits the softmax parameterization to a fixed target at each learning
rate and records where the trajectory lands, whether it ever went
uphill, and how concentrated the final prediction is:

    python scripts/lr_sweep.py --out sweep.csv --lrs 0.03 0.1 0.3 1 3

The monotone column flags any uphill step along the trajectory. The
point-mass target is forgiving (the gradient shrinks as the prediction
saturates, so even large rates descend cleanly); pushing the rate hard
with --hinge enabled is the quickest way to see the column drop to 0.
"""

from __future__ import annotations

import argparse

import numpy as np

from gazekit import GazeMap, fit_gaze_demo, normalize_to_simplex, write_csv


def build_target(kind: str, grid: int) -> GazeMap:
    if kind == "delta":
        values = np.zeros((grid, grid))
        values[grid // 2, grid // 2] = 1.0
        return GazeMap(values)
    return normalize_to_simplex(np.ones((grid, grid)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="summary CSV path")
    parser.add_argument("--lrs", type=float, nargs="+", default=[0.03, 0.1, 0.3, 1.0, 3.0])
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--target", choices=("delta", "uniform"), default="delta")
    parser.add_argument("--hinge", action="store_true", help="include the blur hinge term")
    args = parser.parse_args(argv)

    gt = build_target(args.target, args.grid)
    rows = []
    for lr in args.lrs:
        trajectory = fit_gaze_demo(gt, args.steps, lr, use_hinge=args.hinge)
        losses = [step.loss for step in trajectory]
        monotone = all(b <= a for a, b in zip(losses, losses[1:]))
        final = trajectory[-1]
        rows.append(
            [f"{lr:.17g}", f"{final.loss:.17g}", f"{final.entropy:.17g}", str(int(monotone))]
        )
        print(
            f"lr {lr:g}: final loss {final.loss:.6g}, "
            f"entropy {final.entropy:.4g}, monotone {monotone}"
        )

    write_csv(args.out, ("lr", "final_loss", "final_entropy", "monotone"), rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
