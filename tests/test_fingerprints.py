"""tools/fingerprints.py on the repo's own tree."""

import importlib.util
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("fingerprints", _ROOT / "tools" / "fingerprints.py")
fingerprints = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprints)


def test_the_tree_matches_itself(capsys):
    assert fingerprints.main([str(_ROOT), str(_ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # paper_sec5 and boundary_fine, 2 each; varcoef_batch, 10 per seed
    runs = len(fingerprints.PRESET_RUNS) + 2 + 2 + 10 + 10
    assert lines[-2:] == [f"0 of {runs} runs differ",
                          f"0 of {runs} runs differ in their decisions"]
    assert len(lines) == runs + 2
    names = [line.split()[0] for line in lines[:-2]]
    assert len(set(names)) == runs
    for line in lines[:-2]:
        _, first, second, first_decisions, second_decisions = line.split()
        assert first == second and len(first) == 64
        assert first_decisions == second_decisions and len(first_decisions) == 64


def test_a_differing_run_is_listed_and_fails(monkeypatch, capsys):
    sets = {"a": [("one", "0" * 64, "a" * 64), ("two", "1" * 64, "b" * 64)],
            "b": [("one", "0" * 64, "a" * 64), ("two", "2" * 64, "c" * 64)]}
    monkeypatch.setattr(fingerprints, "run_tree", sets.__getitem__)
    assert fingerprints.main(["a", "b"]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "1 of 2 runs differ", "  two", "1 of 2 runs differ in their decisions", "  two"]
    assert fingerprints.main(["a"]) == 0
    assert capsys.readouterr().out.splitlines() == ["one " + "0" * 64 + " " + "a" * 64,
                                                    "two " + "1" * 64 + " " + "b" * 64]
    assert fingerprints.main([]) == 2


def test_bits_that_differ_with_equal_decisions_still_fail(monkeypatch, capsys):
    # a run that moved in its last bits but took the same decisions: listed
    # under the bits, not under the decisions, and the exit status is 1
    sets = {"a": [("one", "0" * 64, "a" * 64), ("two", "1" * 64, "b" * 64)],
            "b": [("one", "0" * 64, "a" * 64), ("two", "2" * 64, "b" * 64)]}
    monkeypatch.setattr(fingerprints, "run_tree", sets.__getitem__)
    assert fingerprints.main(["a", "b"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "two " + "1" * 64 + " " + "2" * 64 + " " + "b" * 64 + " " + "b" * 64
    assert lines[-3:] == ["1 of 2 runs differ", "  two", "0 of 2 runs differ in their decisions"]


def test_the_decision_digest_reads_only_the_decisions():
    # two traces that differ only in J and the fields share a decision digest;
    # one that differs in rho does not
    from almpde.alm import AlmTraceRow

    def trace(rho, J):
        row = dict.fromkeys(f.name for f in fields(AlmTraceRow))
        row.update(k=1, n=1, rho=rho, success=True, inner_iters=3, J=J)
        return SimpleNamespace(rows=[AlmTraceRow(**row)], termination="tolerance_met")

    same = fingerprints.decision_digest(trace(2.0, 0.25))
    assert fingerprints.decision_digest(trace(2.0, 0.25 + 2 ** -54)) == same
    assert fingerprints.decision_digest(trace(4.0, 0.25)) != same
