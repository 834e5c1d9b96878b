"""Write perfbench/reference.json from one pass of every workload at the reference seed.

    python3 perfbench/make_reference.py

Run it only when the reference outputs are meant to change: the benchmark
counts every later deviation from this file as a failed operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    workloads.use_checkout_sources()
    reference = {"seed": workloads.REFERENCE_SEED}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        work = tempfile.mkdtemp(dir=workloads.OUT_DIR)
        try:
            ctx = workload.setup(workloads.REFERENCE_SEED, work)
            out = Path(work) / "pass"
            out.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                raw = workload.run(ctx, out)
            outputs = workload.collect(ctx, out, raw)
        finally:
            shutil.rmtree(work)
        if outputs.problems:
            raise SystemExit(f"{name}: {outputs.problems}")
        reference[name] = {
            "p_tx": {s.label: s.p_tx for s in outputs.solves},
            "counts_sha256": {s.label: workloads.counts_sha256(s.counts) for s in outputs.sims},
        }
        print(name, {s.label: len(s.p_tx) for s in outputs.solves}, list(reference[name]["counts_sha256"]))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
