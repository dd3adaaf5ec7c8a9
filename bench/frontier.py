"""Frontier probe: which sizes finish under a wall cap.  Run once, never gated.

    python3 bench/frontier.py [--cap 30]

writes bench/frontier.json.

Runs one ``brp_max_margin`` at each of 5 x {4..10} x {4..10}, on
``synth.generate_feasible_dataset(..., margin=0.01, seed=0)``, and one
``fit_family`` at each of 11 x {3..10} x {3..10}, on the benchmark's noise
family (seed 0).  Each probe runs in its own child process under the wall
cap and is recorded as ok, exception or over-cap, with the LP solves and
pivots it reached.  A size is skipped, and recorded as skipped, once a size
no larger in both states and actions went over the cap; noise families are
square, so ``fit_family`` skips states != actions.  The timed workloads sit
below this frontier; the probe keeps what they cannot hold visible.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

PROBES = (
    ("brp_max_margin", 5, range(4, 11)),
    ("fit_family", 11, range(3, 11)),
)
MARGIN = 0.01
SEED = 0


def child(call: str, agents: int, states: int, actions: int) -> None:
    """Run one probe in this process, streaming one line per LP solve."""
    sys.path.insert(0, SRC)
    from inattention import brp, predict, synth
    from workloads import make_noise_family

    original = brp.solve_lp

    def counted(lp):
        solution = original(lp)
        print(f"lp {solution.iterations}", flush=True)
        return solution

    brp.solve_lp = counted
    start = time.perf_counter()
    if call == "brp_max_margin":
        dataset = synth.generate_feasible_dataset(agents, states, actions, margin=MARGIN, seed=SEED).dataset
    else:
        etas, dataset, _ = make_noise_family(SEED, agents, states)
    print(f"generated {time.perf_counter() - start}", flush=True)
    start = time.perf_counter()
    if call == "brp_max_margin":
        margin = brp.brp_max_margin(dataset)[0].margin
    else:
        margin = predict.fit_family(dataset, etas).fitted.margin
    print(f"ok {time.perf_counter() - start} {margin}", flush=True)


def probe(call: str, agents: int, states: int, actions: int, cap: float) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", call, str(agents), str(states), str(actions)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    over_cap = False
    try:
        out, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        over_cap = True
    lines = out.splitlines()
    pivots = [int(line.split()[1]) for line in lines if line.startswith("lp ")]
    record = {
        "call": call,
        "agents": agents,
        "states": states,
        "actions": actions,
        "lp_solves": len(pivots),
        "lp_pivots": sum(pivots),
        "generate_s": next((float(line.split()[1]) for line in lines if line.startswith("generated ")), None),
    }
    done = next((line.split() for line in lines if line.startswith("ok ")), None)
    if over_cap:
        record["status"] = "over-cap"
    elif done is not None:
        record.update(status="ok", seconds=float(done[1]), margin=float(done[2]))
    else:
        last = err.strip().splitlines()[-1] if err.strip() else f"exit code {proc.returncode}"
        record.update(status="exception", detail=last)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Frontier probe (not gated).")
    parser.add_argument("--cap", type=float, default=30.0, help="wall cap per probe, seconds")
    parser.add_argument("--child", nargs=4, metavar=("CALL", "K", "X", "A"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        call, k, x, a = args.child
        child(call, int(k), int(x), int(a))
        return 0

    from run import environment  # also pins BLAS threads for the children

    records = []
    for call, agents, sizes in PROBES:
        over: list[tuple[int, int]] = []
        for states in sizes:
            for actions in sizes:
                blocker = next(((x, a) for x, a in over if x <= states and a <= actions), None)
                record = {"call": call, "agents": agents, "states": states, "actions": actions}
                if call == "fit_family" and states != actions:
                    record.update(status="skipped", detail="noise families are square")
                elif blocker is not None:
                    record.update(status="skipped", detail=f"{agents}x{blocker[0]}x{blocker[1]} went over the cap")
                else:
                    record = probe(call, agents, states, actions, args.cap)
                    if record["status"] == "over-cap":
                        over.append((states, actions))
                records.append(record)
                print(json.dumps(record), flush=True)
    with open(os.path.join(BENCH_DIR, "frontier.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"cap_s": args.cap, "margin": MARGIN, "env": environment(SEED), "probes": records},
            fh,
            indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
