"""Set-up probe: import qest from the checkout and build one workload's
configuration, as a user's process would before its first operation.

    python3 perfbench/qestbench/setup_probe.py <workload>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src"))

import qest  # noqa: E402

X0 = [0.55, 0.55, 0.55]


def main(workload: str) -> None:
    if workload.startswith("adaptive-"):
        qest.RunConfig(x0=X0, weight=workload[len("adaptive-"):], m_max=3000,
                       reps=1, seed=0, eps_ball=0.01)
    elif workload == "tomography":
        from qest import cli

        cli.build_parser().parse_args(
            ["simulate", "--estimator", "tomo", "--weight", "qfi", "--m", "3000",
             "--eps-ball", "0.01"])
    elif workload == "bounds":
        from qest import verify

        if not {"lemmas", "bounds"} <= set(verify.SUITES):
            raise SystemExit("verify lacks the lemmas or bounds suite")
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1])
