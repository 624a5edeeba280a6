"""tools/fingerprints.py on the repo's own tree."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("fingerprints", _ROOT / "tools" / "fingerprints.py")
fingerprints = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprints)


def test_the_tree_matches_itself(capsys):
    assert fingerprints.main([str(_ROOT), str(_ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # paper_sec5 and boundary_fine, 2 each; varcoef_batch, 10 per seed
    runs = len(fingerprints.PRESET_RUNS) + 2 + 2 + 10 + 10
    assert lines[-1] == f"0 of {runs} runs differ"
    assert len(lines) == runs + 1
    names = [line.split()[0] for line in lines[:-1]]
    assert len(set(names)) == runs
    for line in lines[:-1]:
        _, first, second = line.split()
        assert first == second and len(first) == 64


def test_a_differing_run_is_listed_and_fails(monkeypatch, capsys):
    sets = {"a": [("one", "0" * 64), ("two", "1" * 64)],
            "b": [("one", "0" * 64), ("two", "2" * 64)]}
    monkeypatch.setattr(fingerprints, "run_tree", sets.__getitem__)
    assert fingerprints.main(["a", "b"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["1 of 2 runs differ", "  two"]
    assert fingerprints.main(["a"]) == 0
    assert capsys.readouterr().out.splitlines() == ["one " + "0" * 64, "two " + "1" * 64]
    assert fingerprints.main([]) == 2
