"""Spans around graphheat's public functions, recorded from outside the package.

``instrument`` replaces names in the module namespaces where graphheat looks
them up (``graphheat.experiments`` imports most functions by name, ``prior``
calls ``oscillation`` through its own globals, and ``PointCloud`` carries
``pairwise_distances``).  Nothing under ``src/`` changes.

A span holds an id, its parent's id, a name, a start and an end, plus the
tracemalloc peak above the span's entry level for the spans named in
``PEAK``.  tracemalloc runs only while such a span is open, so the per-step
chain loop is not slowed by allocation tracing.  The misfit potential is called
once per chain step; those calls are folded into one record per (parent,
name) holding the call count and summed duration instead of one span each.
Spans stay in memory until ``dump``.
"""

import functools
import json
import time
import tracemalloc

_MIB = float(1 << 20)

# Spans whose summed duration is a per-layer metric.
BUSY = (
    "cloud.pairwise_distances", "graph.build_eps_graph",
    "spectral.eigendecompose", "interpolate.knn_interpolate", "sampler.pcn",
    "sampler.iact", "likelihood.synthesize_data", "prior.oscillation",
    "prior.regularity_experiment", "forward.design_matrix",
    "oracle.graph_posterior", "oracle.continuum_posterior",
)
# Spans that record a tracemalloc peak, also a per-layer metric.
PEAK = (
    "cloud.pairwise_distances", "graph.build_eps_graph",
    "spectral.eigendecompose", "interpolate.knn_interpolate",
    "prior.oscillation",
)


class Tracer:
    def __init__(self):
        self.spans = []      # [id, parent, name, start, end, peak_bytes]
        self.folded = {}     # (parent id, name) -> [calls, busy seconds]
        self.counts = {}     # counter name -> number
        self._stack = []     # open spans: [id, base_bytes, peak_bytes|None]
        self._owner = None   # id of the span that started tracemalloc

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def _fold_peak(self):
        """Credit the current tracemalloc peak to every open memory span."""
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            if frame[2] is not None and peak > frame[2]:
                frame[2] = peak
        tracemalloc.reset_peak()
        return current

    def open(self, name):
        memory = name in PEAK
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owner = sid
        base = self._fold_peak()
        self._stack.append([sid, base, base if memory else None])
        self.spans.append([sid, parent, name, time.perf_counter(), None, None])
        return sid

    def close(self, sid):
        end = time.perf_counter()
        self._fold_peak()
        frame = self._stack.pop()
        if frame[0] != sid:
            raise RuntimeError("span %d closed while %d is open"
                               % (sid, frame[0]))
        span = self.spans[sid]
        span[4] = end
        if frame[2] is not None:
            span[5] = frame[2] - frame[1]
        if self._owner == sid:
            tracemalloc.stop()
            self._owner = None

    def fold(self, name, seconds):
        key = (self._stack[-1][0] if self._stack else None, name)
        cell = self.folded.get(key)
        if cell is None:
            cell = self.folded[key] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds

    def self_times(self):
        """Per span id: duration minus the part covered by direct children."""
        covered = [[] for _ in self.spans]
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent].append((start, end))
        folded_busy = [0.0] * len(self.spans)
        for (parent, _), (_, busy) in self.folded.items():
            if parent is not None:
                folded_busy[parent] += busy
        out = []
        for sid, _, _, start, end, _ in self.spans:
            union, reach = 0.0, start
            for a, b in sorted(covered[sid]):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    union += b - a
                    reach = b
            out.append(end - start - union - folded_busy[sid])
        return out

    def dump(self, path):
        """Write spans, folded calls and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [dict(zip(("id", "parent", "name", "start", "end",
                                    "peak_bytes"), s)) for s in self.spans],
                "folded": [{"parent": p, "name": n, "calls": c, "busy_s": b}
                           for (p, n), (c, b) in sorted(
                               self.folded.items(), key=str)],
                "counts": self.counts,
            }, fh)


def _wrap(tracer, name, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if observe is not None:
            observe(result)
        return result

    return wrapper


def _wrap_potential(tracer, factory):
    perf = time.perf_counter

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        phi = factory(*args, **kwargs)

        def timed(a):
            t0 = perf()
            value = phi(a)
            tracer.fold("likelihood.potential", perf() - t0)
            return value

        return timed

    return _wrap(tracer, "likelihood.potential_from_design_matrix", wrapper)


def observe_components(seen):
    """Record the component count of every graph the experiments build.

    Used on untraced runs too: it adds one list append per graph.
    """
    import graphheat.experiments as ex

    build = ex.build_eps_graph

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        graph = build(*args, **kwargs)
        seen.append(graph.n_components)
        return graph

    ex.build_eps_graph = wrapper


def instrument(tracer):
    """Wrap every public graphheat call the experiment harness makes."""
    import graphheat.cli as cli
    import graphheat.cloud as cloud
    import graphheat.experiments as ex
    import graphheat.prior as prior

    def chain(result):
        tracer.count("sampler.steps", result.proposed)
        tracer.count("sampler.accepted", result.accepted)

    def edges(result):
        tracer.count("graph.edges", result.weights.nnz // 2)

    def pairs(result):
        tracer.count("spectral.eigenpairs", result.count)

    def queries(result):
        tracer.count("interpolate.queries", len(result))

    def calls(name):
        return lambda result: tracer.count(name)

    cloud.PointCloud.pairwise_distances = _wrap(
        tracer, "cloud.pairwise_distances",
        cloud.PointCloud.pairwise_distances,
        calls("cloud.pairwise_distances.calls"))
    prior.oscillation = _wrap(tracer, "prior.oscillation", prior.oscillation,
                              calls("prior.oscillation.calls"))
    cli.run_experiment = _wrap(tracer, "experiments.run_experiment",
                               cli.run_experiment)
    # Spans with no metric of their own keep their time out of
    # experiments.self_s.
    layers = {
        "sample_sphere": ("cloud.sample_sphere", None),
        "build_eps_graph": ("graph.build_eps_graph", edges),
        "laplacian": ("graph.laplacian", None),
        "eigendecompose": ("spectral.eigendecompose", pairs),
        "synthesize_data": ("likelihood.synthesize_data", None),
        "design_matrix": ("forward.design_matrix", None),
        "pcn": ("sampler.pcn", chain),
        "integrated_autocorr_time": ("sampler.iact", None),
        "posterior_mean": ("sampler.posterior_mean", None),
        "graph_posterior": ("oracle.graph_posterior", None),
        "continuum_posterior": ("oracle.continuum_posterior", None),
        "knn_interpolate": ("interpolate.knn_interpolate", queries),
        "sphere_mc_grid": ("interpolate.sphere_mc_grid", None),
        "regularity_experiment": ("prior.regularity_experiment", None),
        "sample_graph_prior": ("prior.sample_graph_prior", None),
    }
    for attr, (name, observe) in layers.items():
        setattr(ex, attr, _wrap(tracer, name, getattr(ex, attr), observe))
    ex.potential_from_design_matrix = _wrap_potential(
        tracer, ex.potential_from_design_matrix)


def layer_metrics(tracer):
    """The per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    busy, peak = {}, {}
    selfs = tracer.self_times()
    self_by_name = {}
    for (sid, _, name, start, end, peak_bytes), own in zip(tracer.spans,
                                                           selfs):
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        if peak_bytes is not None:
            peak[name] = max(peak.get(name, 0), peak_bytes)
    folded_calls, folded_busy = {}, {}
    for (_, name), (calls, seconds) in tracer.folded.items():
        folded_calls[name] = folded_calls.get(name, 0) + calls
        folded_busy[name] = folded_busy.get(name, 0.0) + seconds
    counts = tracer.counts
    steps = counts.get("sampler.steps", 0)
    m = {
        "cloud.pairwise_distances.calls":
            counts.get("cloud.pairwise_distances.calls", 0),
        "graph.edges": counts.get("graph.edges", 0),
        "spectral.eigenpairs": counts.get("spectral.eigenpairs", 0),
        "interpolate.queries": counts.get("interpolate.queries", 0),
        "sampler.steps": steps,
        "sampler.accept_ratio":
            counts.get("sampler.accepted", 0) / steps if steps else 0.0,
        "likelihood.potential.calls":
            folded_calls.get("likelihood.potential", 0),
        "likelihood.potential.busy_s":
            folded_busy.get("likelihood.potential", 0.0),
        "prior.oscillation.calls": counts.get("prior.oscillation.calls", 0),
        "sampler.pcn.self_s": self_by_name.get("sampler.pcn", 0.0),
        "experiments.self_s":
            self_by_name.get("experiments.run_experiment", 0.0),
    }
    for name in BUSY:
        m[name + ".busy_s"] = busy.get(name, 0.0)
    for name in PEAK:
        m[name + ".peak_mb"] = peak.get(name, 0) / _MIB
    return m

