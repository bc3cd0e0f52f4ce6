"""Differential scenario fuzzer (``repro fuzz``).

Compositional operators generate seeded, reproducible mission/scene
scenarios; differential oracles run each one across the float,
quantized, batched, engine, and streaming implementations of the same
detection math and record any disagreement as a replayable JSON case;
a shrink loop minimizes failures and a committed seed corpus pins one
scenario per historical bug.  :mod:`repro.fuzz.reference` holds the
loop window extraction and NMS the detection core is checked against.
"""

from repro.fuzz.corpus import (
    default_artifacts_dir,
    default_corpus_dir,
    iter_corpus,
    load_case,
    save_case,
    spec_from_case,
)
from repro.fuzz.operators import all_operators, generate_scenario
from repro.fuzz.oracles import ORACLES, Divergence
from repro.fuzz.reference import ReferenceDetector, nms_reference
from repro.fuzz.runner import (
    CampaignReport,
    CaseResult,
    ExecutionContext,
    ModelCache,
    build_context,
    replay_case,
    run_campaign,
    run_scenario,
)
from repro.fuzz.scenario import ModelSpec, ScenarioSpec, ScriptedSequence
from repro.fuzz.shrinker import candidate_shrinks, shrink_spec

__all__ = [
    "ORACLES",
    "CampaignReport",
    "CaseResult",
    "Divergence",
    "ExecutionContext",
    "ModelCache",
    "ModelSpec",
    "ReferenceDetector",
    "ScenarioSpec",
    "ScriptedSequence",
    "all_operators",
    "build_context",
    "candidate_shrinks",
    "default_artifacts_dir",
    "default_corpus_dir",
    "generate_scenario",
    "iter_corpus",
    "load_case",
    "nms_reference",
    "replay_case",
    "run_campaign",
    "run_scenario",
    "save_case",
    "shrink_spec",
    "spec_from_case",
]
