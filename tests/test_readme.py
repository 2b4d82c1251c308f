"""README's Python library example runs as written, and its API list is the package's."""

import re

import numpy as np

import dexretarget

from conftest import README, README_LIBRARY, ROOT


def test_readme_library_example_runs_from_the_repo_root(monkeypatch):
    # its paths are relative to the repo root; every name it imports must exist
    monkeypatch.chdir(ROOT)
    names = {}
    exec(compile(README_LIBRARY, "README.md", "exec"), names)
    assert len(names["steps"]) == len(names["frames"]) > 0
    assert np.all(np.isfinite(names["q_final"]))
    assert names["vol"] > 0.0 and names["opp"] > 0.0 and len(names["opps"]) == 2


def test_readme_library_api_lists_exactly_the_exports():
    # one "- `name`: ..." line per exported name, so none is added or removed silently
    section = README.split("### Library API\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `([^`]+)`:", section, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(dexretarget.__all__)
