"""Digests of every output of a fixed set of experiment runs.

    python3 tools/replay_digests.py SRC OUT

Runs the cases below with the ``graphheat`` package of the checkout SRC
(``SRC/src``) and one BLAS thread, writes their outputs under OUT (which
must not exist yet) and prints one line ``case file sha256`` per output
file.  A manifest gives two lines: ``manifest.json`` hashes its results,
without ``wall_time_s`` and the config echo, and ``manifest.json:config``
hashes the config echo without ``out``, the path that differs between
identical runs.  So a change to the config schema alone moves only the
config lines.  The cases themselves come from this script's own checkout,
so two checkouts run the same cases:

    python3 tools/replay_digests.py /path/to/parent /tmp/before > before.txt
    python3 tools/replay_digests.py . /tmp/after > after.txt
    diff before.txt after.txt

When outputs move on purpose, by rounding or by a new random stream,

    python3 tools/replay_digests.py --compare /tmp/before /tmp/after

prints one line per CSV column and per manifest metric that differs
between the two trees: the case, the file, the column (a metric is named
by its key path under ``metrics``), the largest relative difference
|a - b| / max(|a|, |b|), and the row and values where it occurs.  A value
that is not a number, a changed row count, a missing file or any change
to a file that is neither CSV nor a manifest (the SVG plots) counts as
``inf``.  Identical trees print nothing.

Cases:

- the four ``bench/workloads.py`` configs at seeds 50 and 51, full size;
- every ``configs/*.json``, shrunk to the sizes of ``tests/test_configs.py``;
- the toy chain sweep, toy geometry sweep, an auto-k sweep and an auto-k
  sweep whose k differs over the grid, each at jobs 1, 2 and 3 and on
  connected graphs only;
- an auto-k sweep on graphs of 23 to 60 components.

Numpy, scipy and the standard library only.
"""

import ast
import csv
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _shrink():
    """The SHRINK sizes of tests/test_configs.py, read without importing it."""
    with open(os.path.join(ROOT, "tests", "test_configs.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SHRINK"]):
            return {kw.arg: ast.literal_eval(kw.value)
                    for kw in node.value.keywords}
    raise LookupError("no SHRINK in tests/test_configs.py")


def cases():
    """Case name -> (config dict, jobs)."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    out = {}
    for name in workloads.NAMES:
        for seed in (50, 51):
            out["%s-seed%d" % (name, seed)] = (workloads.config(name, seed), 1)
    shrink = _shrink()
    configs = os.path.join(ROOT, "configs")
    for name in sorted(os.listdir(configs)):
        if name.endswith(".json"):
            with open(os.path.join(configs, name)) as fh:
                cfg = json.load(fh)
            cfg.update(shrink)
            out["config-" + name[:-5]] = (cfg, 1)
    # at seed 5 every graph of these grids is connected
    sweep = workloads.config("chain-sweep", 5, toy=True)
    grids = {
        "sweep": sweep,
        "compare": workloads.config("geometry-sweep", 5, toy=True),
        "sweep-auto": dict(sweep, k_n="auto"),
        # k = 2, 2, 3
        "sweep-auto-mixed": dict(sweep, k_n="auto", eps_multiplier=1.2,
                                 n_grid=[300, 600, 1000], replicates=1),
    }
    for name, cfg in grids.items():
        for jobs in (1, 2, 3):
            out["%s-jobs%d" % (name, jobs)] = (cfg, jobs)
    out["sweep-disconnected"] = (dict(
        kind="acceptance-sweep", k_n="auto", eps_multiplier=0.7,
        n_grid=[40, 60, 80, 120], p=10, replicates=2, beta=0.3,
        iterations=200, burn_in=50, l_max=3), 1)
    return out


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, indent=2, sort_keys=True).encode()).hexdigest()


def digests(out):
    """(file, sha256) of every file in out, the manifest split in two."""
    rows = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name != "manifest.json":
            rows.append((name, hashlib.sha256(data).hexdigest()))
            continue
        manifest = json.loads(data)
        del manifest["wall_time_s"]
        config = manifest.pop("config")
        del config["out"]
        rows += [(name, _sha256(manifest)),
                 (name + ":config", _sha256(config))]
    return rows


def _flat(value, path):
    """(key path, leaf) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flat(value[key], path + "." + key if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flat(item, "%s[%d]" % (path, i))
    else:
        yield path, value


def _columns(path):
    """Column -> cells of a CSV file, or metric key path -> [value]."""
    if os.path.basename(path) == "manifest.json":
        with open(path) as fh:
            return {key: [value] for key, value
                    in _flat(json.load(fh)["metrics"], "")}
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _relative(a, b):
    """|a - b| / max(|a|, |b|); NaN equals NaN, anything not a number inf."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(before, after):
    """(case, file, column, largest relative difference, where) per change."""
    out = []
    for case in sorted(set(os.listdir(before)) | set(os.listdir(after))):
        dirs = [os.path.join(tree, case) for tree in (before, after)]
        names = sorted(set().union(*(os.listdir(d) for d in dirs
                                     if os.path.isdir(d))))
        for name in names:
            paths = [os.path.join(d, name) for d in dirs]
            if not all(os.path.isfile(p) for p in paths):
                side = "after" if os.path.isfile(paths[0]) else "before"
                out.append((case, name, "-", math.inf, "missing " + side))
                continue
            if not name.endswith((".csv", ".json")):
                if Path(paths[0]).read_bytes() != Path(paths[1]).read_bytes():
                    out.append((case, name, "-", math.inf, "contents differ"))
                continue
            old, new = (_columns(p) for p in paths)
            for col in list(new) + [c for c in old if c not in new]:
                if col not in old or col not in new:
                    side = "before" if col in new else "after"
                    out.append((case, name, col, math.inf, "missing " + side))
                    continue
                a, b = old[col], new[col]
                if len(a) != len(b):
                    out.append((case, name, col, math.inf,
                                "%d -> %d rows" % (len(a), len(b))))
                    continue
                rel = [_relative(x, y) for x, y in zip(a, b)]
                if rel and max(rel) > 0.0:
                    i = rel.index(max(rel))
                    where = "%s -> %s" % (a[i], b[i])
                    if name != "manifest.json":
                        where = "row %d: %s" % (i + 1, where)
                    out.append((case, name, col, rel[i], where))
    return out


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        for row in compare(*argv[1:]):
            print("%s %s %s %.3g %s" % row)
        return
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = argv
    # before numpy loads, so its BLAS and the pool's workers run one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    logging.basicConfig(level=logging.ERROR)
    import graphheat
    from graphheat import ExperimentConfig, run_experiment

    print("graphheat from", os.path.dirname(graphheat.__file__),
          file=sys.stderr)
    os.makedirs(out)
    for case, (cfg, jobs) in cases().items():
        where = os.path.join(out, case)
        cfg = ExperimentConfig.from_json(json.dumps(dict(cfg, out=where)))
        run_experiment(cfg, out_dir=where, jobs=jobs)
        for name, digest in digests(where):
            print(case, name, digest, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
