"""Record the default-seed outputs that run.py checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference.  It runs one untraced round of every workload with seed 0 and
writes perfbench/reference.json.  Re-recording moves the correctness gate,
so it belongs only in a change that says why the outputs moved.
"""

import json
import shutil
import tempfile

import run  # pins the BLAS pools before numpy loads

from workloads import WORKLOADS, Context, build_presets


def main():
    lur = run.import_lurelab()
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for workload, (preset_names, make_ops) in WORKLOADS.items():
        out_root = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
        try:
            ctx = Context(lur, seed=0, presets=build_presets(lur, preset_names),
                          out_root=out_root)
            ledger, first = run.Ledger(), {}
            for op in make_ops():
                run.run_op(op, ctx, ledger, first, None)
            if ledger.failed:
                raise SystemExit("\n".join(ledger.errors))
            reference[workload] = first
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        print(f"{workload}: {len(first)} operations")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")


if __name__ == "__main__":
    main()
