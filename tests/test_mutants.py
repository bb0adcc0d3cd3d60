"""The mutation suite's mutants still point at the code they mutate."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_old_text_occurs_once():
    # code that moves must take its mutants along, not lose them
    mutants = _mutants()
    assert len({mutant.name for mutant in mutants}) == len(mutants)
    for mutant in mutants:
        text = (ROOT / mutant.file).read_text()
        assert text.count(mutant.old) == 1, (mutant.name, text.count(mutant.old))
        assert mutant.new != mutant.old, mutant.name
        # a mutant must compile: one that does not shows up only as an error,
        # after a full mutation run
        compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")
        assert all((ROOT / test).is_file() for test in mutant.tests), mutant.name
