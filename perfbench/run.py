"""Benchmark of tward: four workloads, timed from outside the program.

    python3 perfbench/run.py --workload enumerate|catalog|verify|screen|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of a workload runs in a fresh
interpreter (``worker.py``), as every CLI user pays for filling the
per-process caches.  Rounds repeat while another one fits in ``--seconds``.
Times are seconds at the reference speed of ``speed.py``, which the
workers sample while they run, as the machine's own speed wanders too far
to be averaged out.  ``wall_s`` is the timed time of all rounds divided by
their number, set-up time the median over several set-ups (README.md says
why); the unscaled figures are printed and kept beside them.  With
``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced rounds, which alternate with
untraced ones so that the cost of tracing can be given.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("enumerate", "catalog", "verify", "screen")
SETUPS = 3  # set-up-only processes per untraced run, besides those of the rounds
ROUND_TIMEOUT = 170.0


class RoundError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, timeout: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} {mode} round timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundError(f"{workload} {mode} round exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_raw_s"] = record["ready"] - started
    record["setup_s"] = (record["setup_raw_s"] - record["setup_sampler_s"]) * record["setup_speed"]
    record["duration"] = time.monotonic() - started
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of one workload for about ``seconds``; returns the result."""
    begin = time.monotonic()
    deadline = begin + seconds

    def left() -> float:
        return max(10.0, ROUND_TIMEOUT - (time.monotonic() - begin))

    setups = [] if trace else [spawn(workload, seed, "setup", left()) for _ in range(SETUPS)]
    modes = ("plain", "traced") if trace else ("plain",)
    rounds: list[dict] = []
    while True:
        mode = modes[len(rounds) % len(modes)]
        spans = OUT / f"spans-{workload}-seed{seed}-round{len(rounds)}.npz" if mode == "traced" else None
        rounds.append(spawn(workload, seed, mode, left(), spans) | {"mode": mode})
        nxt = modes[len(rounds) % len(modes)]
        longest = max(r["duration"] for r in rounds if r["mode"] == nxt) if len(rounds) >= len(modes) else 0.0
        if len(rounds) >= len(modes) and time.monotonic() + longest > deadline:
            break

    plain = [r for r in rounds if r["mode"] == "plain"]
    problems = [p for r in rounds for p in r["problems"]]
    if trace:
        traced = [r for r in rounds if r["mode"] == "traced"]
        layers = {
            key: (statistics.median(r["layers"][key] for r in traced), unit_of(key))
            for key in traced[0]["layers"]
        }
        for key, (value, unit) in layers.items():
            if unit == "count" and any(r["layers"][key] != value for r in traced):
                print(f"warning: {key} differs between traced rounds", file=sys.stderr)
        overhead = statistics.mean(r["wall_s"] for r in traced) - statistics.mean(r["wall_s"] for r in plain)
        layers["trace.overhead_s"] = (overhead, "s")
        metrics = layers
    else:
        metrics = {
            "wall_s": (statistics.mean(r["wall_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups + plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
        unscaled = {
            "wall_raw_s": statistics.mean(r["wall_raw_s"] for r in plain),
            "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setups + plain),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for p in problems[:20]:
        print(f"{workload}: WRONG: {p}", file=sys.stderr)
    if not trace:
        for key, value in unscaled.items():
            print(f"{workload} {key} {value:.6g} s (unscaled)")
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "rounds": rounds, "setups": setups}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail | {"result": result}, indent=1))
    print(f"{workload}: {len(plain)} untraced, {len(rounds) - len(plain)} traced rounds in {time.monotonic() - begin:.1f} s")
    return result


def unit_of(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s") or ".s.n" in key:
        return "s"
    return "ratio" if key.endswith("ratio") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tward" / "__init__.py").is_file():
        print(f"no tward sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
        print(f"{name} attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
