"""The README's code runs as printed."""

from helpers import CONFIG_DIR, readme_python_block


def test_library_surface_block_runs(monkeypatch):
    """The block under "Library surface" runs from the repository root, and
    its one-point values have the shapes it names."""
    monkeypatch.chdir(CONFIG_DIR.parent)
    ns = {}
    exec(compile(readme_python_block("Library surface"), "README.md", "exec"), ns)
    assert ns["F"].shape == (2,) and ns["F"][0] == ns["M"].F(ns["p"].x, ns["p"].y)
    assert ns["ws"].B == 1 and ns["g"].shape == ns["g_inv"].shape == (2, 2)
    assert ns["N"].shape == (2, 2) and ns["dN"].shape == (2, 2, 2)
    assert ns["pack"].shape == ns["gram"].shape == (4, 4)
    assert ns["report"]["pass"] is True
