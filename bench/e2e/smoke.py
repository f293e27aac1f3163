#!/usr/bin/env python3
"""e2e_smoke: every workload at smoke size, traced.

    python3 bench/e2e/smoke.py <path/to/mpas_e2e> <out_dir>

Checks that each run exits 0 and prints every metric BENCHMARK.json names
with failed_share 0, and that a selfcheck=1 run (one flipped reference
bit) exits nonzero for every workload, so the correctness gate can fail.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def main():
    binary, out_root = sys.argv[1], Path(sys.argv[2])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPAS_")}
    errors = []
    for w in (x["name"] for x in bench["workloads"]):
        out = out_root / w
        proc = subprocess.run([binary, f"workload={w}", "seed=1",
                               f"out={out}", "smoke=1", "traced=1"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            errors.append(f"{w}: exit {proc.returncode}: {proc.stderr}")
            continue
        printed = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 4 and parts[0] == w:
                printed[parts[1]] = float(parts[2])
        missing = [n for n in names if n not in printed]
        if missing:
            errors.append(f"{w}: metrics not printed: {missing}")
        if printed.get("failed_share") != 0.0:
            errors.append(f"{w}: failed_share {printed.get('failed_share')}")
        if not (out / f"trace_{w}.json").is_file():
            errors.append(f"{w}: no trace_{w}.json")

        bad = subprocess.run([binary, f"workload={w}", "seed=1",
                              f"out={out}_selfcheck", "smoke=1",
                              "selfcheck=1"], env=env, capture_output=True,
                             text=True, timeout=60)
        if bad.returncode == 0:
            errors.append(f"{w}: selfcheck=1 exited 0; the gate cannot fail")
    for e in errors:
        print("FAIL", e)
    print("e2e_smoke:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
