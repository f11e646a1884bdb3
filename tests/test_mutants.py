"""The mutant kill table: each registered mutant is killed by exactly its checks.

Default ``verify`` runs once per mutant of ``_mutants.MUTANTS``, with the
mutant patched in.  The checks whose summaries fail must equal the
mutant's ``killers``, so a mutant that stops being killed, or starts
being killed by another check, fails here.
"""

import pytest

from partlab.sweeps import SweepConfig, run_verify
from _mutants import MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_killed_by_exactly_its_checks(mutant, monkeypatch):
    original = getattr(mutant.module, mutant.attribute)
    monkeypatch.setattr(mutant.module, mutant.attribute, mutant.make(original))
    result = run_verify(SweepConfig())
    assert {s["name"] for s in result.summaries if not s["holds"]} == mutant.killers
