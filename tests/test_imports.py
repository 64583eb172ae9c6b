import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zslkit"


def scipy_imports(path):
    """(module, name) of every scipy import in one source file; name is None
    for a plain `import scipy...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found += [(node.module, a.name) for a in node.names]
    return found


def test_dense_linear_algebra_runs_on_numpys_lapack_only():
    """numpy is the one runtime dependency. scipy ships its own OpenBLAS with
    its own thread pool: a scipy BLAS or LAPACK call wakes that pool, and its
    busy-waiting workers then compete with numpy's threaded products in
    every stage that follows (on a 2-vCPU machine whole evaluations ran
    20-40 % slower). Even scipy routines that run no BLAS cost about 40 MB
    and 0.45 s of import at every start. So every factorisation, product,
    logsumexp and assignment in zslkit is numpy's or zslkit's own."""
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = {
        f"{path.name}: {module}.{name or '*'}"
        for path in files
        for module, name in scipy_imports(path)
    }
    assert not bad, sorted(bad)


# Runs the CLI in a fresh interpreter whose imports of scipy fail, as they
# would where scipy is not installed.
NO_SCIPY_RUN = textwrap.dedent(
    """
    import json, sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
            return None

    sys.meta_path.insert(0, RefuseScipy())
    from zslkit import cli

    spec = {"n_classes": 6, "n_seen": 3, "d_visual": 8, "d_latent_true": 2,
            "d_semantic": 4, "examples_per_class": 8, "images_per_class": 4,
            "n_splits": 1}
    with open("spec.json", "w") as f:
        json.dump(spec, f)
    runs = [
        ["synth", "--spec", "spec.json", "--seed", "3", "--out", "data"],
        ["evaluate", "--manifest", "data/manifest.json", "--space", "data/space.json",
         "--splits", "data/splits.json", "--d-latent", "2", "--neighbors", "3",
         "--transductive", "--out", "eval"],
        ["encode", "--manifest", "data/manifest.json", "--method", "ffv", "--k", "2",
         "--out", "ffv"],
    ]
    for argv in runs:
        code = cli.main(argv)
        if code:
            sys.exit(f"{argv[0]} exited {code}")
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    if loaded:
        sys.exit(f"scipy modules loaded: {loaded}")
    """
)


def test_cli_runs_without_scipy(tmp_path):
    """synth, a transductive evaluate (k-means + optimal assignment) and a
    Fisher encode (GMM posteriors) run to exit 0 when scipy cannot be
    imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    report = tmp_path / "eval" / "report_transductive.json"
    assert report.is_file()
    assert (tmp_path / "ffv" / "space.json").is_file()
