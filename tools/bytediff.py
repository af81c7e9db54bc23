"""Differential byte check: run one corpus of scenario configs through two
versions of the program and report every difference.

Usage, from the repository root:

    python3 tools/bytediff.py --base REV

compares ``src/`` at git revision REV against the working tree's ``src/``.
REV's tree is extracted with ``git archive REV src | tar -x`` into a
temporary directory, so no git state changes.  The corpus is:

- the shipped configs in ``scenarios/``;
- the stress configs (six) and the maximal configs (six, one per kind and
  two for casestudy) of ``tests/corpus.py``;
- the ``perfbench/workloads.py`` generators at their ``tiny`` sizes, over
  ``SEEDS``;
- ``CALTARGETS`` copies of ``scenarios/casestudy_tokens.json`` with seeded
  calibration ``targets`` in [0.3, 0.9], rounded to 6 digits;
- ``MUTATIONS`` mutants of the shipped and maximal configs, drawn with
  ``random.Random(0)`` by ``numeric_mutant`` of ``tests/corpus.py``: each
  is cut to a size that runs in milliseconds and has 1-3 numbers replaced
  by edge values.  ``TestRunProperty`` in ``tests/test_scenarios.py`` runs
  these very configs;
- two CoT chains from the ``perfbench/workloads.py`` generator at the
  exact search's depth limits: 5,000 steps on one device and 19 steps on
  two.

Beside the configs, each side runs the ``casestudy`` subcommand on the flag
lists of ``CASESTUDY_ARGV``.  Each side runs the whole corpus in one warm
worker process that calls ``cli.main(["run", ...])`` and
``cli.main(["casestudy", ...])``, each with ``--out``, with BLAS on one
thread.  A run differs when its exit code, the lines it prints or the
sha256 of any output file differ, or when it raises on either side.  The
exit status is 1 on any difference, else 0.  The tool uses the standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent

SEEDS = (1, 2, 3, 4, 5)
MUTATIONS = 200
CALTARGETS = 40
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# ``edgelam-sim casestudy`` flags, by run name: the defaults, the
# calibration, and flag text that exits 2 or 3
CASESTUDY_ARGV = {
    "casestudy_cli_defaults": [],
    "casestudy_cli_calibrate": ["--calibrate"],
    "casestudy_cli_target_nan": ["--calibrate", "--targets", "0.5,nan"],
    "casestudy_cli_one_target": ["--targets", "0.5"],
    "casestudy_cli_empty_budget": ["--budgets", "64,,128"],
    "casestudy_cli_budget_700": ["--budgets", "700"],
    "casestudy_cli_calibrated_700": ["--calibrate", "--budgets", "128,700"],
    "casestudy_cli_device_limit": ["--budgets", "1,2,3"],
}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _load(path: Path):
    """Execute the module at ``path`` under a name of its own and return it."""
    spec = importlib.util.spec_from_file_location(f"bytediff_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def build_corpus(dest: Path, seeds=SEEDS, mutations: int = MUTATIONS) -> list[Path]:
    """Write the corpus configs into ``dest``; returns their paths in run order."""
    corpus = _load(ROOT / "tests" / "corpus.py")
    wl = _load(ROOT / "perfbench" / "workloads.py")
    shipped = {p.stem: json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "scenarios").glob("*.json"))}
    configs = {**shipped, **corpus.STRESS, **corpus.MAXIMAL_CONFIGS}
    for seed in seeds:
        for workload in ("solve_scaled", "sim_long"):
            for sc in wl.WORKLOADS[workload].build(seed, "tiny"):
                # a pinned config is the same for every seed
                configs[sc.name if sc.pinned else f"{sc.name}_seed{seed}"] = sc.config
    rng = random.Random(1)
    for i in range(CALTARGETS):
        cfg = copy.deepcopy(shipped["casestudy_tokens"])
        cfg["casestudy"]["targets"] = [round(rng.uniform(0.3, 0.9), 6) for _ in range(2)]
        configs[f"caltarget{i:02d}"] = cfg
    bases = {**shipped, **corpus.MAXIMAL_CONFIGS}
    rng = random.Random(0)
    for i in range(mutations):
        name = rng.choice(sorted(bases))
        configs[f"mutant{i:03d}_{name}"] = corpus.numeric_mutant(bases[name], rng)
    # the deepest chains the exact CoT search meets: one device, whose 1^S
    # passes the guard at any length, and two devices at the guard's 19 steps
    configs["cot_1^5000"] = wl.gen_cot(random.Random(2), 1, 5000, tight=False)
    configs["cot_2^19_tight"] = wl.gen_cot(random.Random(3), 2, 19, tight=True)
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in configs.items():
        path = dest / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# one side: a warm worker process
# ---------------------------------------------------------------------------

def worker(jobs_path: str, result_path: str) -> None:
    """Run every command line of the job list (by run name, without
    ``--out``) in this process, writing outputs under ``out/`` in the
    working directory, and record what each gave."""
    import edgelam_sim
    from edgelam_sim import cli

    runs = {}
    for name, argv in json.loads(Path(jobs_path).read_text(encoding="utf-8")).items():
        out = Path("out") / name  # relative, so both sides print the same paths
        printed = io.StringIO()
        code, trace = None, None
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            try:
                code = cli.main([*argv, "--out", str(out)])
            except Exception:
                trace = traceback.format_exc()
        files = {}
        if out.is_dir():
            files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(out.iterdir())}
            shutil.rmtree(out)
        runs[name] = {"code": code, "lines": printed.getvalue().splitlines(),
                      "files": files, "traceback": trace}
    result = {"module": edgelam_sim.__file__, "runs": runs}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def _start(src: Path, jobs: Path, work: Path) -> subprocess.Popen:
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src.resolve()), str(TOOLS)]),
               PYTHONDONTWRITEBYTECODE="1")
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    code = "import sys, bytediff; bytediff.worker(*sys.argv[1:])"
    return subprocess.Popen(
        [sys.executable, "-c", code, str(jobs), str(work / "result.json")],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _finish(proc: subprocess.Popen, src: Path, work: Path) -> dict:
    output = proc.communicate()[0]
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {src} failed:\n{output}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"worker for {src} imported {result['module']}")
    return result["runs"]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def compare(base_src: Path, head_src: Path, configs: list[Path]) -> list[str]:
    """Run ``configs`` and the ``casestudy`` flag lists on both ``src``
    directories; one line per difference."""
    runs = {p.stem: ["run", "--config", str(p.resolve())] for p in configs}
    runs.update((name, ["casestudy", *argv]) for name, argv in CASESTUDY_ARGV.items())
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        jobs_path = Path(tmp) / "jobs.json"
        jobs_path.write_text(json.dumps(runs), encoding="utf-8")
        sides = [(src, Path(tmp) / side) for side, src in (("base", base_src), ("head", head_src))]
        procs = [_start(src, jobs_path, work) for src, work in sides]
        base, head = (_finish(proc, *side) for proc, side in zip(procs, sides))
    diffs = []
    for name in runs:
        a, b = base[name], head[name]
        for side, run in (("base", a), ("head", b)):
            if run["traceback"]:
                last = run["traceback"].strip().splitlines()[-1]
                diffs.append(f"{name}: traceback on the {side} side: {last}")
        if a["code"] != b["code"]:
            diffs.append(f"{name}: exit {a['code']} (base) != {b['code']} (head)")
        if a["lines"] != b["lines"]:
            diffs.append(f"{name}: printed {a['lines']} (base) != {b['lines']} (head)")
        for file in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(file) != b["files"].get(file):
                where = [s for s, run in (("base", a), ("head", b)) if file in run["files"]]
                what = "differs" if len(where) == 2 else f"only on the {where[0]} side"
                diffs.append(f"{name}/{file}: {what}")
    return diffs


def extract(rev: str, dest: Path) -> Path:
    """``src/`` at ``rev``, via ``git archive REV src | tar -x``; returns it."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot extract src at {rev!r}")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        try:
            base_src = extract(args.base, Path(tmp) / "base")
        except RuntimeError as exc:
            print(f"bytediff: {exc}", file=sys.stderr)
            return 2
        configs = build_corpus(Path(tmp) / "corpus")
        diffs = compare(base_src, ROOT / "src", configs)
    for line in diffs:
        print(line)
    print(f"bytediff: {len(configs)} configs and {len(CASESTUDY_ARGV)} casestudy flag lists, "
          f"{len(diffs)} differences against {args.base}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
