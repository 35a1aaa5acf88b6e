"""Digests of every output of a fixed set of experiment runs.

    python3 tools/replay_digests.py SRC OUT

Runs the cases below with the ``graphheat`` package of the checkout SRC
(``SRC/src``) and one BLAS thread, writes their outputs under OUT (which
must not exist yet) and prints one line ``case file sha256`` per output
file.  A manifest is hashed without ``wall_time_s`` and ``config.out``, the
two fields that differ between identical runs.  The cases themselves come
from this script's own checkout, so two checkouts run the same cases:

    python3 tools/replay_digests.py /path/to/parent /tmp/before > before.txt
    python3 tools/replay_digests.py . /tmp/after > after.txt
    diff before.txt after.txt

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
import hashlib
import json
import logging
import os
import sys

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


def digests(out):
    """(file, sha256) of every file in out, the manifest made replayable."""
    rows = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            del manifest["wall_time_s"]
            del manifest["config"]["out"]
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        rows.append((name, hashlib.sha256(data).hexdigest()))
    return rows


def main(argv):
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
