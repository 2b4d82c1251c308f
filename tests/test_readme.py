"""README's Python library example runs as written."""

import numpy as np

from conftest import README_LIBRARY, ROOT


def test_readme_library_example_runs_from_the_repo_root(monkeypatch):
    # its paths are relative to the repo root; every name it imports must exist
    monkeypatch.chdir(ROOT)
    names = {}
    exec(compile(README_LIBRARY, "README.md", "exec"), names)
    assert len(names["steps"]) == len(names["frames"]) > 0
    assert np.all(np.isfinite(names["q_final"]))
    assert names["vol"] > 0.0 and names["opp"] > 0.0 and len(names["opps"]) == 2
