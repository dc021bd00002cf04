#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload offline-r160 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Workloads (inputs are pure functions of ``(workload, seed)``, see
``gen.py``):

``offline-r160``
    ``train_bourne`` at the ``repro train`` defaults, epoch by epoch,
    then ``score_graph`` at R=160, in-process on cora@0.15.
``serve-cold-r160``
    ``repro serve --listen --rounds 160``; two NDJSON connections in a
    closed loop, every request a node nobody scored before.
``serve-stream-r8``
    ``repro serve --listen --registry DIR --name bench`` (R=8); an open
    loop at a fixed rate: reads and every write on NDJSON, reads only
    on HTTP/1.1 keep-alive, two hot-swaps between published versions.

End-to-end metrics, every workload: ``setup_s`` (CPU seconds of one
set-up, median of three), ``cpu_ms_per_op`` (CPU ms of one unit of
work: offline the median epoch, serving the server's CPU per answered
request), ``rounds_per_cpu_s`` (target-rounds scored per CPU second:
offline the median ``score_graph`` call, serving the server over the
whole phase) and ``ok_frac``.  CPU times are rescaled to a reference
host speed by a probe sampled through the run (``stats.SpeedProbe``);
BLAS runs one thread, here and in the servers.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (``layers.py``) from a traced rerun of the same inputs,
plus the traced/untraced ``trace.overhead_frac``.  Correctness checks
run inside every run; a failed check prints no metrics and exits 1.
The last stdout line is the JSON result; the line before it is a
report with the ungated figures (per-op latencies, AUCs, counts,
unscaled CPU figures, speed probe, environment).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# One BLAS thread, here and in every server this starts (they inherit
# the environment): the matrices are small, and a second BLAS thread
# spinning next to the load generator on a 2-vCPU box doubles the CPU
# an epoch costs while saving 7% of its wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gen  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from loadgen import (ServerProcess, closed_loop, open_loop,  # noqa: E402
                     request_once)

WORKLOADS = ("offline-r160", "serve-cold-r160", "serve-stream-r8")

#: End-to-end metrics every workload reports, with units.  Every timing
#: here is CPU time (the kernel charges it net of hypervisor steal and
#: of waiting for a busy second core) rescaled by the run's
#: ``stats.SpeedProbe``: on the shared 2-vCPU host wall-clock medians of
#: the same code moved 35-50% (IQR/median over ten seeds) between quiet
#: and busy phases, and raw CPU time still 20-25%, past any bound a
#: regression gate can use.  Wall-clock latencies, tails and rates, and
#: the unscaled CPU figures, are in the report line.
END_TO_END = (("setup_s", "s"), ("cpu_ms_per_op", "ms"),
              ("rounds_per_cpu_s", "1/s"), ("ok_frac", "ratio"))

#: Tail percentile per workload: the highest with ten samples beyond it
#: at the workload's guaranteed sample count (``stats.min_count``):
#: offline has 25 epochs, serve-cold runs to >= 40 reads, serve-stream
#: schedules >= 40 reads per fifth.
TAIL_P = {"offline-r160": 60, "serve-cold-r160": 75, "serve-stream-r8": 75}
#: serve-stream reports the median of its five fifths' tails: one slow
#: phase of the shared machine moves one fifth, not the figure.
STREAM_WINDOWS = 5
SETUP_REPS = 3
#: Fewest ``score_graph`` calls an offline run times (it keeps going
#: until ``--seconds`` of scoring).
SCORE_REPS = 3
NODE_AUC_FLOOR = 0.70
EDGE_AUC_FLOOR = 0.60
COLD_WARMUP = 4
COLD_CHECK = 3
#: About half of the ~38 req/s this mix saturates at on a 2-vCPU box
#: (the server spends ~12 ms of CPU per request, a quarter of a core).
STREAM_RATE = 20.0
STREAM_CHECK = 8
STREAM_SLO_MS = 250.0      # ``serve --trace-slow-ms`` default
STREAM_COMPACT = 0.02      # ``--compact-threshold``: >= 1 fold per run
#: The load generator samples the speed probe this often while a
#: serving phase runs (one sample is about 1 ms of CPU).
PROBE_EVERY_S = 0.25


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Run:
    """State of one benchmark invocation: arguments, scratch directory
    inside the checkout, and the report being assembled."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.model_seed = gen.seed_for(workload, seed)
        self.report = {"workload": workload, "seed": seed,
                       "model_seed": self.model_seed, "seconds": seconds,
                       "trace": int(trace)}
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.layer_metrics = layers.empty_metrics()
        self.probe = stats.SpeedProbe()

    def set_metrics(self, setup_cpu_s: float, cpu_ms_per_op: float,
                    rounds_per_cpu_s: float, ok_frac: float) -> None:
        """The end-to-end metrics from unscaled CPU figures: timings are
        rescaled to the reference speed, and the unscaled ones go to the
        report."""
        scale = self.probe.scale()
        self.metrics = {"setup_s": setup_cpu_s * scale,
                        "cpu_ms_per_op": cpu_ms_per_op * scale,
                        "rounds_per_cpu_s": rounds_per_cpu_s / scale,
                        "ok_frac": ok_frac}
        self.report["unscaled"] = {"setup_cpu_s": setup_cpu_s,
                                   "cpu_ms_per_op": cpu_ms_per_op,
                                   "rounds_per_cpu_s": rounds_per_cpu_s}
        self.report["probe"] = {"median_ms": self.probe.median_ms(),
                                "n": len(self.probe.samples_ms),
                                "scale": scale}

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def serve_argv(self, traced: bool, *extra) -> list:
        head = ([os.path.join(HERE, "traced_serve.py"),
                 "--spans", self.path("spans.json"), "--"]
                if traced else ["-m", "repro"])
        return head + ["serve", "--dataset", gen.DATASET,
                       "--scale", str(gen.SCALE),
                       "--seed", str(gen.DATASET_SEED),
                       "--listen", "127.0.0.1:0", *extra]

    def server(self, argv, tag: str) -> ServerProcess:
        return ServerProcess(argv, ROOT, self.path(f"{tag}.log"))


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": "numpy",
            "machine": platform.machine()}


# ----------------------------------------------------------------------
# offline-r160
# ----------------------------------------------------------------------
def _offline_job(graph, config, probe):
    """Train epoch by epoch (``train_bourne``'s own loop: one trainer,
    ``fit`` once per epoch), then score at R=160.  Returns
    ``(model, scores, epoch_cpu_seconds, train_window, score_window,
    score_cpu_seconds)``; the windows are wall-clock."""
    from repro.core import Bourne, BourneTrainer

    model = Bourne(graph.num_features, config)
    epoch_cpu = []
    train_start = time.perf_counter()
    with BourneTrainer(model, config) as trainer:
        for _ in range(config.epochs):
            probe.sample(2)
            start = time.process_time()
            trainer.fit(graph, epochs=1)
            epoch_cpu.append(time.process_time() - start)
    train_end = score_start = time.perf_counter()
    scores, score_cpu = _score(model, graph, probe)
    score_end = time.perf_counter()
    return (model, scores, epoch_cpu, (train_start, train_end),
            (score_start, score_end), score_cpu)


def _score(model, graph, probe):
    """``score_graph`` at R=160 between speed-probe samples; returns
    ``(scores, CPU seconds)``."""
    from repro.core import score_graph

    probe.sample(10)
    start = time.process_time()
    scores = score_graph(model, graph, rounds=gen.OFFLINE_ROUNDS)
    cpu = time.process_time() - start
    probe.sample(10)
    return scores, cpu


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _cold_start_cpu_s(run: Run) -> float:
    """CPU seconds a fresh process needs before its first epoch:
    interpreter start, imports, graph generation, model construction --
    what ``repro train`` pays up front."""
    code = ("import sys; sys.path[:0] = [{!r}, {!r}]; import gen; "
            "from repro.core import Bourne; g = gen.load_graph(); "
            "Bourne(g.num_features, gen.model_config({}, "
            "gen.TRAIN_DEFAULTS['epochs'], gen.OFFLINE_ROUNDS))").format(
                HERE, os.path.join(ROOT, "src"), run.model_seed)
    start = _children_cpu_s()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, timeout=120)
    return _children_cpu_s() - start


def run_offline(run: Run) -> None:
    import numpy as np

    from repro.metrics import roc_auc_score

    setups = []
    for _ in range(SETUP_REPS):
        run.probe.sample(5)
        setups.append(_cold_start_cpu_s(run))
    graph = gen.load_graph()
    config = gen.model_config(run.model_seed, gen.TRAIN_DEFAULTS["epochs"],
                              gen.OFFLINE_ROUNDS)
    model, scores, epoch_cpu, train_w, score_w, score_cpu = _offline_job(
        graph, config, run.probe)
    node, edge = scores.node_scores, scores.edge_scores
    # Score again, the same model on the same graph, until scoring has
    # run ``--seconds``: the median call shrugs off a slow phase of the
    # host during one of them, and every call must give the same bits.
    score_cpus = [score_cpu]
    while (len(score_cpus) < SCORE_REPS
           or time.perf_counter() - score_w[0] < run.seconds):
        again, cpu = _score(model, graph, run.probe)
        check(np.array_equal(again.node_scores, node)
              and np.array_equal(again.edge_scores, edge),
              "repeated score_graph calls gave different scores")
        score_cpus.append(cpu)
    run.attempted = config.epochs + len(score_cpus)
    check(node.shape == (graph.num_nodes,), f"node scores shape {node.shape}")
    check(edge.shape == (graph.num_edges,), f"edge scores shape {edge.shape}")
    check(bool(np.isfinite(node).all() and np.isfinite(edge).all()),
          "non-finite scores")
    node_auc = roc_auc_score(graph.node_labels, node)
    edge_auc = roc_auc_score(graph.edge_labels, edge)
    check(node_auc >= NODE_AUC_FLOOR,
          f"node AUC {node_auc:.4f} < floor {NODE_AUC_FLOOR}")
    check(edge_auc >= EDGE_AUC_FLOOR,
          f"edge AUC {edge_auc:.4f} < floor {EDGE_AUC_FLOOR}")
    train_s = train_w[1] - train_w[0]
    score_s = score_w[1] - score_w[0]
    epoch_cpu_ms = [s * 1000.0 for s in epoch_cpu]
    p = TAIL_P[run.workload]
    node_rounds = graph.num_nodes * gen.OFFLINE_ROUNDS
    run.set_metrics(stats.median(setups),
                    stats.percentile(epoch_cpu_ms, 50),
                    node_rounds / stats.median(score_cpus), 1.0)
    run.report.update({
        "train_targets_per_s": graph.num_nodes * config.epochs / train_s,
        "score_node_rounds_per_s": node_rounds / score_s,
        "node_auc": node_auc, "edge_auc": edge_auc,
        "epoch_cpu_ms": stats.timing_summary(epoch_cpu_ms, p),
        "train_s": train_s, "score_s": score_s, "score_cpu_s": score_cpus,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
    })
    if not run.trace:
        return
    from spans import Recorder

    recorder = Recorder().install()
    try:
        _, traced_scores, _, train_w, score_w, _ = _offline_job(
            graph, config, stats.SpeedProbe())
    finally:
        recorder.uninstall()
    check(np.array_equal(traced_scores.node_scores, node),
          "traced offline scores differ from untraced")
    run.layer_metrics = layers.offline_layers(recorder.spans, train_w,
                                              score_w)
    traced_s = (train_w[1] - train_w[0]) + (score_w[1] - score_w[0])
    run.layer_metrics["trace.overhead_frac"] = traced_s / (train_s
                                                           + score_s) - 1.0


# ----------------------------------------------------------------------
# Serving helpers
# ----------------------------------------------------------------------
def _train(graph, model_seed: int, epochs: int, rounds: int):
    from repro.core import train_bourne

    model, _ = train_bourne(graph, gen.model_config(model_seed, epochs,
                                                    rounds))
    return model


def _setup_servers(run: Run, prepare, argv_for) -> tuple:
    """Set up ``SETUP_REPS`` times (``SETUP_REPS`` = 1 when tracing):
    ``prepare(rep)`` builds inputs and returns their state, then the
    server boots until its ready line.  All but the last server stop
    again.  A set-up costs the CPU time ``prepare`` takes here plus the
    server's CPU time up to its ready line.  Returns ``(median set-up
    CPU seconds, median set-up wall seconds, state, server)``."""
    reps = 1 if run.trace else SETUP_REPS
    cpu, wall = [], []
    server = state = None
    for rep in range(reps):
        if server is not None:
            server.stop()
        run.probe.sample(5)
        start, cpu_start = time.perf_counter(), time.process_time()
        state = prepare(rep)
        server = run.server(argv_for(state, False), f"boot{rep}").start()
        cpu.append(time.process_time() - cpu_start + server.cpu_s())
        wall.append(time.perf_counter() - start)
    return stats.median(cpu), stats.median(wall), state, server


def _summarize(outcomes, p: int, slo_ms=None) -> dict:
    """Counts and latency summary; a failed or shed request counts as
    infinitely late, so it misses every latency bound."""
    lat = [o.latency_ms if o.ok else math.inf for o in outcomes]
    summary = {"attempted": len(outcomes),
               "succeeded": sum(1 for o in outcomes if o.ok),
               "failed": sum(1 for o in outcomes if not o.ok),
               "shed": sum(1 for o in outcomes if o.response
                           and o.response.get("error_type")
                           == "AdmissionRejected")}
    if lat:
        summary.update(stats.timing_summary(lat, p))
    if slo_ms is not None:
        summary["slo_met_frac"] = (sum(1 for o in outcomes if o.ok
                                       and o.latency_ms < slo_ms)
                                   / max(1, len(outcomes)))
    return summary


async def _probing(probe: stats.SpeedProbe, phase):
    """Await ``phase`` while sampling ``probe`` every
    :data:`PROBE_EVERY_S`, so the scale reflects the host's speed while
    the server works, not before."""
    async def tick():
        while True:
            probe.sample()
            await asyncio.sleep(PROBE_EVERY_S)

    ticker = asyncio.ensure_future(tick())
    try:
        return await phase
    finally:
        ticker.cancel()
        try:
            await ticker
        except asyncio.CancelledError:
            pass


async def _stats(server) -> dict:
    response = await request_once(server.host, server.port, {"op": "stats"})
    return response["stats"]


# ----------------------------------------------------------------------
# serve-cold-r160
# ----------------------------------------------------------------------
async def _cold_phase(server, warm, measured, seconds, probe):
    """Warm-up (nodes outside the measurement), then the closed loop."""
    def requests(nodes):
        nodes = iter(nodes)

        def next_request():
            node = next(nodes, None)
            return None if node is None else {"op": "score", "nodes": [node]}

        return next_request

    warmup = await closed_loop(server.host, server.port, 2, requests(warm),
                               0.0, min_done=len(warm))
    before = await _stats(server)
    cpu_start = server.cpu_s()
    outcomes = await _probing(probe, closed_loop(
        server.host, server.port, 2, requests(measured), seconds,
        min_done=stats.min_count(TAIL_P["serve-cold-r160"])))
    cpu_s = server.cpu_s() - cpu_start
    after = await _stats(server)
    return warmup, outcomes, before, after, cpu_s


def run_cold(run: Run) -> None:
    from repro.core import load_model, save_model
    from repro.serving import GraphStore, ScoringService

    ckpt = run.path("model.npz")

    def prepare(rep):
        graph = gen.load_graph()
        model = _train(graph, run.model_seed, gen.SERVE_EPOCHS[0],
                       gen.COLD_ROUNDS)
        save_model(model, ckpt)
        return graph

    def argv_for(_graph, traced):
        return run.serve_argv(traced, "--model", ckpt,
                              "--rounds", str(gen.COLD_ROUNDS))

    setup_s, setup_wall_s, graph, server = _setup_servers(run, prepare,
                                                          argv_for)
    warm, measured = gen.cold_order(graph.num_nodes, run.seed, COLD_WARMUP)
    p = TAIL_P[run.workload]
    try:
        warmup, outcomes, before, after, cpu_s = asyncio.run(
            _cold_phase(server, warm, measured, run.seconds, run.probe))
    finally:
        code = server.stop()
    check(code == 0, f"server exited with code {code}")
    check(all(o.valid for o in outcomes), "invalid response envelope")
    served = {o.request["nodes"][0]: o.response["scores"][
        str(o.request["nodes"][0])] for o in outcomes if o.ok}
    sample = [o.request["nodes"][0] for o in outcomes if o.ok][:COLD_CHECK]
    model = load_model(ckpt)
    store = GraphStore.from_graph(graph,
                                  influence_radius=model.config.hop_size)
    oracle = ScoringService(model, store, rounds=gen.COLD_ROUNDS)
    expected = oracle.score_nodes(sample)
    check(all(float(e) == served[n] for n, e in zip(sample, expected)),
          "served R=160 scores differ from the in-process ScoringService")
    check(after["table_hits"] == before["table_hits"],
          "a cold read hit the score table")
    summary = _summarize(outcomes, p)
    span_s = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    run.attempted, run.failed = summary["attempted"], summary["failed"]
    run.set_metrics(setup_s, cpu_s * 1000.0 / summary["succeeded"],
                    summary["succeeded"] * gen.COLD_ROUNDS / cpu_s,
                    summary["succeeded"] / summary["attempted"])
    run.report.update({
        "setup_wall_s": setup_wall_s, "server_cpu_s": cpu_s,
        "warmup": _summarize(warmup, 50), "reads": summary,
        "read_rps": summary["succeeded"] / span_s,
        "node_rounds_per_s": summary["succeeded"] * gen.COLD_ROUNDS / span_s,
        "fail_frac": summary["failed"] / summary["attempted"],
        "view_cache_hits": after["cache_hits"] - before["cache_hits"],
        "checked_nodes": sample,
    })
    if not run.trace:
        return
    server = run.server(argv_for(graph, True), "traced").start()
    try:
        _, traced, before, after, _ = asyncio.run(
            _cold_phase(server, warm, measured, run.seconds,
                        stats.SpeedProbe()))
    finally:
        code = server.stop()
    check(code == 0, f"traced server exited with code {code}")
    check(all(o.ok for o in traced), "traced run had failures")
    from spans import load_spans

    window = (min(o.due for o in traced), max(o.done for o in traced))
    run.layer_metrics = layers.serving_layers(
        load_spans(run.path("spans.json")), window, before, after)
    traced_p50 = stats.percentile([o.latency_ms for o in traced], 50)
    run.layer_metrics["trace.overhead_frac"] = traced_p50 / summary["p50"] - 1


# ----------------------------------------------------------------------
# serve-stream-r8
# ----------------------------------------------------------------------
def _stream_count(seconds: float) -> int:
    """Requests in the schedule: ``seconds`` at the fixed rate, but
    never so few that the reads (about 74% of requests) fall short of
    what the windowed tail percentile needs."""
    need = STREAM_WINDOWS * stats.min_count(TAIL_P["serve-stream-r8"])
    return max(int(STREAM_RATE * seconds), math.ceil(need / 0.68))


def _check_nodes(plan, node_order) -> list:
    """Nodes the quiesced check reads: the last nodes the writes touched
    (their regions changed most recently) and the hottest read nodes."""
    touched = []
    for op in reversed(plan.ops):
        body = op.body
        if body["op"] == "add_edge":
            touched += [body["u"], body["v"]]
        elif body["op"] == "update_features":
            touched.append(body["node"])
    picked = list(dict.fromkeys(touched[:STREAM_CHECK // 2]
                                + [int(n) for n in node_order[:STREAM_CHECK]]))
    return picked[:STREAM_CHECK]


async def _stream_phase(server, plan, check_nodes, probe):
    before = await _stats(server)
    cpu_start = server.cpu_s()
    outcomes = await _probing(probe, open_loop(server.host, server.port,
                                               plan.ops))
    cpu_s = server.cpu_s() - cpu_start
    after = await _stats(server)
    wire = await request_once(server.host, server.port,
                              {"op": "score", "nodes": check_nodes})
    return outcomes, before, after, wire, cpu_s


def run_stream(run: Run) -> None:
    from repro.gateway.protocol import dispatch_request
    from repro.serving import GraphStore, ModelRegistry, ScoringService

    def prepare(rep):
        graph = gen.load_graph()
        registry = ModelRegistry(run.path(f"registry{rep}"))
        for epochs in gen.SERVE_EPOCHS:
            registry.publish(_train(graph, run.model_seed, epochs,
                                    gen.STREAM_ROUNDS), "bench")
        return graph, registry

    def argv_for(state, traced):
        return run.serve_argv(traced, "--registry", state[1].root,
                              "--name", "bench",
                              "--compact-threshold", str(STREAM_COMPACT))

    setup_s, setup_wall_s, (graph, registry), server = _setup_servers(
        run, prepare, argv_for)
    plan = gen.stream_plan(graph, run.seed, STREAM_RATE,
                           _stream_count(run.seconds))
    check_nodes = _check_nodes(plan, gen.popularity(graph)[0])
    p = TAIL_P[run.workload]
    try:
        outcomes, before, after, wire, cpu_s = asyncio.run(
            _stream_phase(server, plan, check_nodes, run.probe))
    finally:
        code = server.stop()
    check(code == 0, f"server exited with code {code}")
    check(all(o.valid for o in outcomes), "invalid response envelope")
    final_version = registry.latest("bench")
    for out in outcomes:
        if out.kind == "reload" and out.ok:
            final_version = out.response["version"]
    # Oracle: replay every acknowledged write, in order, against the
    # final served version, then score the check nodes in-process.
    model = registry.load("bench", final_version)
    store = GraphStore.from_graph(graph,
                                  influence_radius=model.config.hop_size,
                                  compact_threshold=STREAM_COMPACT)
    oracle = ScoringService(model, store)
    for out in outcomes:
        if out.kind == "write" and out.ok:
            dispatch_request(oracle, out.request)
    expected = oracle.score_nodes(check_nodes)
    check(wire.get("ok") is True, f"quiesced read failed: {wire}")
    check(all(float(e) == wire["scores"][str(n)]
              for n, e in zip(check_nodes, expected)),
          "wire scores differ from the replayed in-process service")
    check(after["store_compactions"] > before["store_compactions"],
          "no delta compaction during the run")

    reads = [o for o in outcomes if o.kind == "read"]
    writes = [o for o in outcomes if o.kind == "write"]
    check(len(reads) >= STREAM_WINDOWS * stats.min_count(p),
          f"{len(reads)} reads cannot support a windowed p{p} tail")
    summary = _summarize(reads, p, STREAM_SLO_MS)
    summary[f"p{p}_windowed"] = stats.windowed_percentile(
        [o.latency_ms if o.ok else math.inf for o in reads], p,
        STREAM_WINDOWS)
    lag = [o.lag_ms for o in outcomes]
    span_s = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    run.attempted = len(outcomes)
    run.failed = sum(1 for o in outcomes if not o.ok)
    served_rounds = gen.STREAM_ROUNDS * sum(
        len(o.request["nodes"]) if o.request["op"] == "score" else 1
        for o in reads if o.ok)
    run.set_metrics(setup_s, cpu_s * 1000.0 / (run.attempted - run.failed),
                    served_rounds / cpu_s,
                    (run.attempted - run.failed) / run.attempted)
    run.report.update({
        "setup_wall_s": setup_wall_s, "server_cpu_s": cpu_s,
        "rate": STREAM_RATE,
        "ok_per_s": (run.attempted - run.failed) / span_s,
        "reads": summary,
        "writes": _summarize(writes, stats.tail_percentile(len(writes)) or 50,
                             STREAM_SLO_MS),
        "slo_met_frac": _summarize(reads + writes, p,
                                   STREAM_SLO_MS)["slo_met_frac"],
        "fail_frac": run.failed / run.attempted,
        "lag_ms": stats.timing_summary(lag, stats.tail_percentile(len(lag))),
        "traffic": {
            "write_share": len(writes) / len(outcomes),
            "nodes_per_node_read": plan.nodes_read / max(1, plan.node_reads),
            "edge_reads": plan.edge_reads, "writes": plan.writes,
            "table_hit_share": layers.hit_ratio(before, after, "table"),
            "view_cache_hit_share": layers.hit_ratio(before, after, "cache"),
            "compactions": after["store_compactions"]
            - before["store_compactions"],
        },
        "final_version": final_version,
    })
    if not run.trace:
        return
    server = run.server(argv_for((graph, registry), True), "traced").start()
    try:
        traced, before, after, _, _ = asyncio.run(
            _stream_phase(server, plan, check_nodes, stats.SpeedProbe()))
    finally:
        code = server.stop()
    check(code == 0, f"traced server exited with code {code}")
    check(all(o.ok for o in traced), "traced run had failures")
    from spans import load_spans

    window = (min(o.due for o in traced), max(o.done for o in traced))
    run.layer_metrics = layers.serving_layers(
        load_spans(run.path("spans.json")), window, before, after)
    traced_p50 = stats.percentile(
        [o.latency_ms for o in traced if o.kind == "read"], 50)
    run.layer_metrics["trace.overhead_frac"] = traced_p50 / summary["p50"] - 1
    run.layer_metrics["loadgen.lag_ms"] = stats.percentile(
        [o.lag_ms for o in traced], stats.tail_percentile(len(traced)))


RUNNERS = {"offline-r160": run_offline, "serve-cold-r160": run_cold,
           "serve-stream-r8": run_stream}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def result_line(run: Run, correct: bool) -> dict:
    if not correct:
        return {"correct": False, "attempted": max(1, run.attempted),
                "failed": max(1, run.failed), "metrics": {}}
    if run.trace:
        units = dict(layers.PER_LAYER)
        values = run.layer_metrics
    else:
        units = dict(END_TO_END)
        values = run.metrics
    return {"correct": True, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": float(values[name]),
                               "unit": units[name]} for name in units}}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    run = Run(workload, seed, seconds, trace, workdir)
    correct = True
    try:
        RUNNERS[workload](run)
        check(all(math.isfinite(v) for v in run.metrics.values()),
              "too many failed requests to report a latency")
        run.layer_metrics["calib.probe_ms"] = run.probe.median_ms()
    except CheckFailed as failure:
        correct = False
        run.report["check_failed"] = str(failure)
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.report["env"] = environment()
    if correct:
        run.report["metrics"] = {k: round(v, 6) for k, v in
                                 (run.layer_metrics if trace
                                  else run.metrics).items()}
    print(json.dumps({"report": run.report}))
    print(json.dumps(result_line(run, correct)), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(name, args.seed, args.seconds, bool(args.trace))
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
