"""tools/bytediff.py: the differential byte check between two ``src`` trees."""

import json
import shutil
from pathlib import Path

import pytest

from edgelam_sim.scenarios import parse_scenario, run_scenario

from corpus import MAXIMAL_CONFIGS
from test_scenarios import (ALL_CONFIGS, cot_cfg, fedft_cfg, key_paths, reference_fields,
                            write_cfg)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def copy_src(dest: Path) -> Path:
    return Path(shutil.copytree(SRC, dest / "src", ignore=shutil.ignore_patterns("__pycache__")))


@pytest.fixture
def corpus(tmp_path):
    return [write_cfg(tmp_path, fedft_cfg(), "fedft.json"),
            write_cfg(tmp_path, cot_cfg(), "cot.json")]


def test_head_against_a_copy_of_itself_reports_nothing(bytediff, tmp_path, corpus):
    assert bytediff.compare(copy_src(tmp_path), SRC, corpus) == []


def test_nudged_fedft_lr_reports_the_fedft_outputs(bytediff, tmp_path, corpus):
    head = copy_src(tmp_path)
    scenarios = head / "edgelam_sim" / "scenarios.py"
    text = scenarios.read_text(encoding="utf-8")
    lr = 'lr=_number(block, "lr", "fedft", positive=True),'
    assert text.count(lr) == 1
    scenarios.write_text(text.replace(lr, lr[:-1] + " * (1 + 1e-15),"), encoding="utf-8")
    assert bytediff.compare(SRC, head, corpus) == [
        "fedft/fedft_rounds.csv: differs", "fedft/fedft_summary.json: differs",
    ]


def test_corpus_covers_every_source(bytediff, tmp_path):
    paths = bytediff.build_corpus(tmp_path, seeds=(1,), mutations=3)
    names = [p.stem for p in paths]
    shipped = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))
    assert names[:6] == shipped
    assert names[6:12] == ["moe_stress", "unlearn_stress", "cot_stress", "fedft_stress",
                           "moe_low_snr", "cot_mixed_scale"]
    assert names[12:18] == list(MAXIMAL_CONFIGS)
    assert "fedft_4_loose_seed1" in names and "unlearn_pinned" in names
    assert [n.split("_")[0] for n in names[-5:-2]] == ["mutant000", "mutant001", "mutant002"]
    assert names[-2:] == ["cot_1^5000", "cot_2^19_tight"]
    for path in paths[:-5] + paths[-2:]:  # every config but the mutants runs as written
        parse_scenario(path.read_text(encoding="utf-8"))


def test_corpus_sets_every_field_of_the_config_reference(bytediff, tmp_path):
    set_by_kind = {}
    for path in bytediff.build_corpus(tmp_path):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        set_by_kind.setdefault(cfg["kind"], set()).update(p for p, _ in key_paths(cfg))
    for kind in ALL_CONFIGS:
        assert reference_fields(kind) <= set_by_kind[kind], kind


def test_corpus_calibrates_seeded_targets(bytediff, tmp_path):
    paths = bytediff.build_corpus(tmp_path / "corpus", seeds=(1,), mutations=0)
    caltargets = [p for p in paths if p.stem.startswith("caltarget")]
    assert [p.stem for p in caltargets] == [f"caltarget{i:02d}" for i in range(40)]
    targets = set()
    for path in caltargets:
        spec = parse_scenario(path.read_text(encoding="utf-8")).spec
        targets.add(spec["targets"])
        assert all(0.3 <= t <= 0.9 and t == round(t, 6) for t in spec["targets"])
        assert run_scenario(str(path), str(tmp_path / "out" / path.stem)) == 0
    assert len(targets) == 40


def test_a_traceback_is_a_difference(bytediff, tmp_path, corpus):
    head = copy_src(tmp_path)
    scenarios = head / "edgelam_sim" / "scenarios.py"
    text = scenarios.read_text(encoding="utf-8")
    runner = "def _run_cot(spec: dict, seed: int):\n"
    assert text.count(runner) == 1
    scenarios.write_text(text.replace(runner, runner + '    raise RuntimeError("boom")\n'),
                         encoding="utf-8")
    assert bytediff.compare(SRC, head, corpus) == [
        "cot: traceback on the head side: RuntimeError: boom",
        "cot: exit 0 (base) != None (head)",
        "cot/cot_result.json: only on the base side",
    ]


def test_casestudy_subcommand_runs_are_compared(bytediff, tmp_path):
    # the uncalibrated model's handoff latency: only the flag lists that
    # run that model to exit 0 change
    head = copy_src(tmp_path)
    cli = head / "edgelam_sim" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    handoff = "gamma_handoff=0.03,"
    assert text.count(handoff) == 1
    cli.write_text(text.replace(handoff, "gamma_handoff=0.04,"), encoding="utf-8")
    diffs = bytediff.compare(SRC, head, [])
    assert {line.split(":")[0].split("/")[0] for line in diffs} == {
        "casestudy_cli_defaults", "casestudy_cli_empty_budget",
    }
    assert "casestudy_cli_defaults/casestudy_sweep.csv: differs" in diffs
