"""The mutation table of benchmarks/mutants.py follows the code it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants() -> dict:
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "benchmarks" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_finds_its_code_and_tests():
    # a change that moves mutated code fails here, and moves the entry with it
    for name, (file, edits, node_ids) in _mutants().items():
        text = (ROOT / "src" / "ruinbounds" / file).read_text(encoding="utf-8")
        for old, _ in edits:
            assert old in text, f"mutant {name}: its old text is no longer in {file}"
        for node in node_ids:
            assert (ROOT / node.split("::")[0]).is_file(), f"mutant {name}: no test file {node}"
