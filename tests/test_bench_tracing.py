"""The benchmark tracer's contract with the package.

``bench/tracing.py`` rebinds names in graphheat's modules to trace them, so
removing or renaming one of them breaks ``bench/run.py --trace 1``.  This
test reads which names ``instrument`` and ``observe_components`` rebind from
their source and checks that each exists.  It never calls them: they patch
the modules for the rest of the process.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + parts[::-1]
    return None


def _rebound(fn):
    """(module, attribute path) of every name fn assigns in a module."""
    tree = ast.parse(inspect.getsource(fn))
    aliases, dicts, found = {}, {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    dicts[target.id] = [k.value for k in node.value.keys]
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                path = _dotted(target)
                if path and len(path) > 1 and path[0] in aliases:
                    found.add((aliases[path[0]], tuple(path[1:])))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
            # for attr, ... in layers.items(): setattr(ex, attr, ...)
            source = _dotted(node.iter.func)
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "setattr"
                        and isinstance(call.args[0], ast.Name)
                        and source and source[-1] == "items"):
                    module = aliases[call.args[0].id]
                    for key in dicts[source[0]]:
                        found.add((module, (key,)))
    return found


def test_every_traced_name_exists():
    tracing = _load_tracing()
    rebound = (_rebound(tracing.instrument)
               | _rebound(tracing.observe_components))
    # the parser finds names set through the layer table as well as the
    # direct assignments
    assert ("graphheat.cloud", ("PointCloud", "pairwise_distances")) in rebound
    assert ("graphheat.experiments", ("knn_interpolate",)) in rebound
    assert ("graphheat.experiments", ("build_eps_graph",)) in rebound
    missing = []
    for module, path in sorted(rebound):
        obj = importlib.import_module(module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append("%s.%s" % (module, ".".join(path)))
    assert missing == []
