import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zslkit"

# The scipy names zslkit may import: neither calls BLAS or LAPACK.
ALLOWED = {("scipy.special", "logsumexp"), ("scipy.optimize", "linear_sum_assignment")}


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
    """scipy ships its own OpenBLAS with its own thread pool. A scipy BLAS or
    LAPACK call (scipy.linalg, scipy.sparse.linalg, ...) wakes that pool, and
    its busy-waiting workers then compete with numpy's threaded products in
    every stage that follows: on a 2-vCPU machine this made whole
    evaluations 20-40 % slower. So every matrix factorisation and product in
    zslkit goes through numpy, and scipy is imported only for routines that
    run no BLAS."""
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = {
        f"{path.name}: {module}.{name or '*'}"
        for path in files
        for module, name in scipy_imports(path)
        if (module, name) not in ALLOWED
    }
    assert not bad, sorted(bad)
