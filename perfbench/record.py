"""Record the reference fields of every shipped and pinned scenario.

    python3 perfbench/record.py

Runs each scenario once through ``python -m edgelam_sim.cli run`` and writes
``references.json``.  It was run at the seed commit; a later version of the
program is checked against those results, so re-recording is only right
when a change of results is intended and said so.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads as wl


def main() -> int:
    run.preflight()
    env = run.child_env()
    refs = {"_recorded_at": run.git_sha()}
    for scale in wl.SIZES:
        for workload in wl.WORKLOADS.values():
            run_dir = run.WORK / f"record-{workload.name}-{scale}"
            shutil.rmtree(run_dir, ignore_errors=True)
            items = [it for it in run.materialize(workload.build(0, scale), run_dir)
                     if it["scenario"].pinned]
            for it in items:
                key = run.reference_key(scale, it["scenario"])
                if key in refs:
                    continue
                out_dir = run_dir / "out" / it["scenario"].name
                cmd = [sys.executable, "-m", "edgelam_sim.cli", "run",
                       "--config", it["path"], "--out", str(out_dir)]
                code, wall, _ = run.spawn(cmd, env, run_dir / "stderr.log")
                if code != 0:
                    print(f"{key}: exit {code}", file=sys.stderr)
                    return 1
                out = checks.load_outputs(it["kind"], out_dir)
                errors = checks.check(it["kind"], it["cfg"], out, it["scenario"].expect)
                if errors:
                    print(f"{key}: {errors}", file=sys.stderr)
                    return 1
                refs[key] = checks.fields(it["kind"], out)
                print(f"recorded {key} ({wall:.2f} s)")
            shutil.rmtree(run_dir, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
