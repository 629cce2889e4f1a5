"""The byte-identity tool, scripts/equivalence.py: a digest of the same
commands on the same package repeats exactly, and compare names what
differs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "scripts" / "equivalence.py"


def _tool():
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_of_one_fan_repeats():
    eq = _tool()
    # the cube's face fan: nonsimplicial, so its pair dump records the
    # subdivision centers
    cases = [case for case in eq.fixed_polytopes() if case[0] == "cube"]
    first, second = eq.digest(cases), eq.digest(cases)
    assert first == second
    assert eq.compare(first, second) == []
    # every command once, plus two on the pair dump
    assert len(first) == len(eq.POLYTOPE_COMMANDS) + len(eq.PAIR_COMMANDS)
    assert all(r["exit"] == 0 and r["modp_fallbacks"] == 0
               for r in first.values())
    label, last = next(iter(first)), max(first)
    changed = dict(first)
    changed[label] = dict(first[label], exit=1)
    del changed[last]
    assert set(eq.compare(first, changed)) == {
        f"differs (exit): {label}", f"only in before: {last}"}
