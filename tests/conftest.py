"""Shared fixtures."""

import shutil

import pytest


@pytest.fixture
def edit_paper(tmp_path, monkeypatch):
    """Point ``qncalc.targets`` at a copy of the printed-equation files and
    return ``edit(block, tag, old, new)``, which replaces ``old`` by
    ``new`` once on the line of ``block.eqs`` tagged ``tag``."""
    from qncalc import targets

    copy = tmp_path / "paper"
    shutil.copytree(targets._PAPER_DIR, copy)
    monkeypatch.setattr(targets, "_PAPER_DIR", str(copy))

    def edit(block, tag, old, new):
        path = copy / f"{block}.eqs"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        [i] = [i for i, line in enumerate(lines) if line.rstrip().endswith(f"@{tag}")]
        assert old in lines[i], lines[i]
        lines[i] = lines[i].replace(old, new, 1)
        path.write_text("".join(lines), encoding="utf-8")

    return edit
