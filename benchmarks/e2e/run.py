"""End-to-end benchmark of the repro package.

One run, the form ``BENCHMARK.json``'s command takes::

    python3 benchmarks/e2e/run.py --workload discrete-full --seed 7 --seconds 20 --trace 0

It prints failure notes on stderr and, as the last line of stdout, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (``--spans FILE`` also writes the spans).  It
exits 1 when an operation failed its correctness checks, and 2 without a
result when the checkout holds no ``src/repro`` to measure.

Sets of runs, each run in a fresh interpreter::

    python3 benchmarks/e2e/run.py --seed 7 --repeats 10 [--workloads a,b] [--trace] --out A.json

Repeat ``r`` runs every workload with seed ``seed + r``, in an order
rotated by ``r``; ``--trace`` adds one traced run per workload.  Compare
two sets with ``python3 benchmarks/e2e/compare.py A.json B.json``.

A deliberate change to the science regenerates the golden digests::

    python3 benchmarks/e2e/run.py --update-expected [--workloads a,b]

Every run is hermetic: ``REPRO_*`` variables are dropped, hashing is
fixed with ``PYTHONHASHSEED=0`` and temporary files stay in the
benchmark's scratch directory; a run started otherwise re-executes
itself under those rules.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from harness import EXPECTED_PATH, EXPECTED_SEEDS, ROOT, SRC, WORK_DIR

BENCHMARK = ROOT / "BENCHMARK.json"


def hermetic_env(environ: Mapping[str, str]) -> Dict[str, str]:
    """``environ`` without ``REPRO_*`` knobs, with fixed hashing and a
    temporary directory inside the checkout."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK_DIR / "tmp")
    return env


def _contract() -> Dict:
    return json.loads(BENCHMARK.read_text("utf-8"))


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def single_run(args) -> int:
    from harness import WORKLOADS, measure

    try:
        line, notes = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1,
            spans_path=args.spans,
        )
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def update_expected(names: List[str]) -> int:
    from harness import WORKLOADS, expected_digests, load_expected

    expected = {name: v for name, v in load_expected().items() if name in WORKLOADS}
    try:
        for name in names:
            expected[name] = {
                str(seed): expected_digests(WORKLOADS[name], seed) for seed in EXPECTED_SEEDS
            }
            print(f"{name}: {expected[name]}", file=sys.stderr)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", "utf-8")
    return 0


def _child(env, workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "elapsed_s": time.perf_counter() - t0, "result": result}


def summarize(runs: List[Dict], metrics: List[Dict]) -> str:
    """Median and spread (quartile distance over median) per workload."""
    from compare import quartiles

    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not mine:
            continue
        bad = sum(1 for r in mine if r["exit"] != 0 or not r["result"])
        rows.append(f"{workload}: {len(mine)} runs, {bad} failed, "
                    f"max {max(r['elapsed_s'] for r in mine):.1f} s per run")
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine
                      if r["result"] and metric["name"] in r["result"]["metrics"]]
            if values:
                q1, med, q3 = quartiles(values)
                rows.append(f"  {metric['name']:18s} {med:12.6g} {metric['unit']:7s} "
                            f"spread {(q3 - q1) / med:7.2%}")
    return "\n".join(rows)


def run_sets(args, names: List[str]) -> int:
    contract = _contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    env = hermetic_env(os.environ)
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    # one untimed warm-up import, so the first timed run does not pay
    # for compiling the package
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import repro.api, repro.experiments.runner"], env=env, check=True)
    runs = []
    for r in range(args.repeats):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            runs.append(_child(env, name, args.seed + r, seconds, False))
            print(f"repeat {r} {name}: exit {runs[-1]['exit']} "
                  f"in {runs[-1]['elapsed_s']:.1f} s", file=sys.stderr)
    if args.trace:
        for name in names:
            runs.append(_child(env, name, args.seed, seconds, True))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    payload = {"seconds": seconds, "seed": args.seed, "repeats": args.repeats, "runs": runs}
    args.out.write_text(json.dumps(payload, indent=1) + "\n", "utf-8")
    print(summarize(runs, contract["end_to_end"]))
    return 0 if all(r["exit"] == 0 and r["result"] for r in runs) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one run of this workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--spans", type=Path,
                        help="with --workload --trace 1: write the spans here (JSONL)")
    parser.add_argument("--repeats", type=int, help="sets mode: repeats per workload")
    parser.add_argument("--workloads", help="sets mode: comma-separated subset")
    parser.add_argument("--out", type=Path, help="sets mode: result file")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the golden digests of seeds 7 and 11")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    env = hermetic_env(os.environ)
    if env != dict(os.environ):
        (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        sys.stdout.flush()
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    _import_program()

    from harness import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = sorted(set(names + ([args.workload] if args.workload else [])) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.update_expected:
        return update_expected(names)
    if args.workload:
        if args.seconds is None:
            parser.error("--seconds is required with --workload")
        return single_run(args)
    if args.repeats is None or args.out is None:
        parser.error("give --workload, or --repeats and --out, or --update-expected")
    return run_sets(args, names)


if __name__ == "__main__":
    sys.exit(main())
