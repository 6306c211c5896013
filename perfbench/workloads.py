"""The three benchmark workloads: input generation and one timed job each.

Every function here runs inside a child process started by ``run.py``
with ``src/`` on the path and a fixed ``PYTHONHASHSEED``.  A child
imports the program, generates its inputs from its seed (untimed),
performs the program's set-up, runs one timed job and returns plain
numbers and samples for ``run.py`` to aggregate.

Sizes are constants on purpose: a run's work must not depend on the
machine it runs on, only on the seed.  The corpus and the topic model
are fixed (``MODEL_SEED``), like the paper's one crawl; the seed draws
the online and serve streams from them and seeds every planner.
Different models differ several-fold in planning work (whether rounding
overloads a node, and how much repair that takes), which would swamp
any change a later optimisation makes.  For the same reason offline's
trace is fixed too, like the paper's one query log: six seed-drawn
100,000-query traces of the same model took 0.57 to 1.49 s to plan,
while six planner seeds on one trace took 0.94 to 1.11 s.
"""

from __future__ import annotations

import asyncio
import resource

from checks import check_offline, check_online, check_serve
from layers import REGION

MODEL_SEED = 0

# offline: the paper's Figure 6 pipeline on the search case study.
OFFLINE = dict(
    vocabulary=8000,
    documents=3000,
    queries=100_000,
    topics=800,
    nodes=16,
    scope=400,
)
# online: `repro online`'s diurnal drifting stream, 600 s periods.
ONLINE = dict(
    vocabulary=2000,
    topics=200,
    qps=10.0,
    duration_s=3600.0,
    shift_fraction=0.5,
    window_s=600.0,
    nodes=5,
    sketch_width=512,
    heavy_hitters=128,
    decay=0.7,
    churn=0.4,
    budget_fraction=0.1,
)
# serve: the loadgen scenario's query stream sent open loop at a
# constant rate on a RefClockLoop; a stream:greedy replan on the loop
# after every `replan_every` queries, planned on the queries sent since
# the previous one.
SERVE = dict(
    queries=12_000,
    rate_qps=1500.0,
    replan_every=250,
)
# Latency limits behind goodput_qps: per job for offline, per period
# for online, per answer for serve.  Serve's sits near its p99, so
# goodput counts the answers that replan stalls push past it.
LIMIT_MS = {"offline": 10_000.0, "online": 2000.0, "serve": 20.0}


def generate(workload: str, seed: int) -> dict:
    """The inputs of one job, a pure function of ``seed``."""
    return {"offline": _gen_offline, "online": _gen_online, "serve": _gen_serve}[
        workload
    ](seed)


def run_job(workload: str, seed: int, inputs: dict, import_s: float, tracer) -> dict:
    """Set up the program and run one timed job; returns raw results.

    ``import_s`` is the time the child spent importing the program,
    which counts toward set-up.  ``tracer`` is the child's
    :class:`layers.LayerTracer`, with every entry point installed in
    traced runs and only ``layers.TIMED[workload]`` in untraced ones.
    """
    job = {"offline": _offline, "online": _online, "serve": _serve}[workload]
    result = job(seed, inputs, import_s, tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The region's reference time; serve's region_s is its loop clock.
    result["work_s"] = tracer.durations[REGION][-1]
    return result


class _Region:
    """Time of the timed region, the tracer's outermost frame."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.tracer.enter_region()
        return self

    def __exit__(self, *exc):
        self.tracer.exit_region()
        self.seconds = self.tracer.durations[REGION][-1]
        return False


class RefClockLoop(asyncio.SelectorEventLoop):
    """An asyncio loop whose clock counts only the loop's own work.

    Each loop iteration advances the clock by the reference time
    (``refclock.py``) it used; when nothing is runnable the clock jumps
    to the next timer instead of sleeping.  On a quiet core of reference
    speed this is the wall clock.  On a shared virtual machine it leaves
    out the time the host runs other guests and the host's changes of
    speed: there, replans that used 9 to 16 ms of CPU took up to 54 ms
    of wall time, and such preemptions, not the program, set the
    wall-clock tail.

    Like the program's own ``repro.serve.vtime.VirtualTimeLoop``, it
    relies on the base loop's ``_ready`` queue and ``_scheduled`` heap.
    """

    def __init__(self, clock) -> None:
        super().__init__()
        self._ref_clock = clock
        self._clock = 0.0

    def time(self) -> float:
        return self._clock

    def _run_once(self) -> None:
        if not self._ready and self._scheduled:
            self._clock = max(self._clock, self._scheduled[0]._when)
        start = self._ref_clock()
        super()._run_once()
        self._clock += self._ref_clock() - start


# ----------------------------------------------------------------------
# offline
# ----------------------------------------------------------------------
def _case_study_config():
    from repro.experiments.common import CaseStudyConfig

    return CaseStudyConfig(
        num_documents=OFFLINE["documents"],
        vocabulary_size=OFFLINE["vocabulary"],
        num_queries=OFFLINE["queries"],
        num_topics=OFFLINE["topics"],
        seed=MODEL_SEED,
    )


def _gen_offline(seed: int) -> dict:
    from repro.search.index import InvertedIndex
    from repro.workloads.corpus_gen import generate_corpus
    from repro.workloads.query_gen import QueryWorkloadModel

    # The period-one steps of repro.experiments.common.CaseStudy.build.
    # Everything is fixed; `seed` seeds only the planner (see above).
    config = _case_study_config()
    corpus = generate_corpus(
        config.num_documents,
        config.vocabulary_size,
        words_per_doc=config.words_per_doc,
        zipf_exponent=config.corpus_zipf_exponent,
        seed=MODEL_SEED,
    )
    model = QueryWorkloadModel(
        InvertedIndex.from_corpus(corpus).vocabulary,
        num_topics=config.num_topics,
        topic_size_range=config.topic_size_range,
        topic_query_fraction=config.topic_query_fraction,
        membership_exponent=config.membership_exponent,
        seed=MODEL_SEED,
    )
    return {"corpus": corpus, "log": model.generate(config.num_queries, rng=MODEL_SEED)}


def _offline(seed: int, inputs: dict, import_s: float, tracer) -> dict:
    import numpy as np

    from repro.core import strategies
    from repro.core.strategies import PlanConfig
    from repro.search import engine as search_engine
    from repro.search import index as search_index

    log = inputs["log"]
    min_support = _case_study_config().min_support
    clock = tracer.clock
    t0 = clock()
    index = search_index.InvertedIndex.from_corpus(inputs["corpus"])
    setup_s = import_s + clock() - t0

    with _Region(tracer) as region:
        problem = search_engine.build_placement_problem(
            index, log, OFFLINE["nodes"], min_support=min_support
        )
        t_plan = clock()
        result = strategies.get_planner("lprr")(
            problem, config=PlanConfig(scope=OFFLINE["scope"], seed=seed)
        )
        plan_s = clock() - t_plan
        t_replay = clock()
        engine = search_engine.DistributedSearchEngine(index, result.placement)
        stats = engine.execute_log(log)
        t_end = clock()

    # Figure 6's denominator: the same trace replayed under hash placement.
    hashed = strategies.get_planner("hash")(problem, config=PlanConfig()).placement
    hash_bytes = (
        search_engine.DistributedSearchEngine(index, hashed).execute_log(log).total_bytes
    )
    comm_ratio = stats.total_bytes / hash_bytes
    lprr = result.details
    failures = check_offline(
        assignment=result.placement.assignment,
        num_objects=problem.num_objects,
        num_nodes=problem.num_nodes,
        scope_index=[problem.object_index(obj) for obj in lprr.scope_objects],
        sizes=problem.sizes,
        capacities=lprr.effective_capacities,
        tolerance=PlanConfig().capacity_tolerance,
        comm_ratio=comm_ratio,
    )
    queries = len(log)
    job_s = setup_s + region.seconds
    moved = hashed.assignment != result.placement.assignment
    return {
        "setup_s": setup_s,
        "region_s": region.seconds,
        "plan_s": plan_s,
        "ops_per_s": queries / (t_end - t_replay),
        "cpu_ms_per_op": region.seconds * 1000.0 / queries,
        "bytes_per_op": stats.total_bytes / queries,
        "ops": queries,
        "answered": queries - stats.unserved_queries,
        "comm_ratio": comm_ratio,
        "plan_cost": float(result.cost),
        "migrated_bytes": float(np.sum(problem.sizes[moved])),
        # A batch job's queries all complete when the job does, from
        # launch (set-up) to result.
        "latencies_ms": [job_s * 1000.0],
        "latency_weights": None,
        "within_limit": queries if job_s * 1000.0 <= LIMIT_MS["offline"] else 0,
        "goodput_window_s": job_s,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# online
# ----------------------------------------------------------------------
def _drifting_stream(model, shifted, duration_s, qps, seed, **kwargs):
    """``repro online``'s stream: the second half from the shifted model."""
    from repro.workloads.stream import TimedQuery, generate_stream

    half = duration_s / 2.0
    stream = generate_stream(model, half, base_qps=qps, seed=seed, **kwargs)
    stream += [
        TimedQuery(timed.time_s + half, timed.query)
        for timed in generate_stream(shifted, half, base_qps=qps, seed=seed + 1, **kwargs)
    ]
    return stream


def _gen_online(seed: int) -> dict:
    from repro.workloads.query_gen import QueryWorkloadModel

    vocabulary = [f"w{i:06d}" for i in range(ONLINE["vocabulary"])]
    model = QueryWorkloadModel(vocabulary, num_topics=ONLINE["topics"], seed=MODEL_SEED)
    shifted = model.drifted(ONLINE["shift_fraction"], seed=MODEL_SEED + 1)
    stream = _drifting_stream(model, shifted, ONLINE["duration_s"], ONLINE["qps"], seed)
    return {"vocabulary": vocabulary, "stream": stream}


def _online(seed: int, inputs: dict, import_s: float, tracer) -> dict:
    from repro.core.hashing import hash_node
    from repro.core.strategies import PlanConfig
    from repro.online import DriftThresholds, OnlineConfig, OnlinePlanner
    from repro.online.windows import tumbling_periods

    shape = ONLINE
    stream = inputs["stream"]
    t0 = tracer.clock()
    config = OnlineConfig(
        num_nodes=shape["nodes"],
        window_s=shape["window_s"],
        sketch_width=shape["sketch_width"],
        heavy_hitters=shape["heavy_hitters"],
        decay=shape["decay"],
        min_support=1,
        seed=seed,
        thresholds=DriftThresholds(churn=shape["churn"]),
        budget_fraction=shape["budget_fraction"],
        planning=PlanConfig(seed=seed),
    )
    published: dict[int, dict] = {}
    planner = OnlinePlanner(
        {word: 1.0 for word in inputs["vocabulary"]},
        config,
        on_publish=published.__setitem__,
    )
    setup_s = import_s + tracer.clock() - t0

    with _Region(tracer) as region:
        report = planner.run(stream)

    # Replay the stream: each operation against the placement in force
    # during its period, and against hash placement.  An operation costs
    # one unit-size transfer per extra node it touches.
    current = None
    planned = hashed = 0
    for period in tumbling_periods(stream, shape["window_s"]):
        if current is not None:
            for operation in period.operations:
                objects = set(operation)
                planned += len({current[obj] for obj in objects}) - 1
                hashed += len({hash_node(obj, shape["nodes"]) for obj in objects}) - 1
        current = published.get(period.index, current)

    decisions = report.periods
    periods = list(
        zip(
            tracer.in_region("durations", "online.period"),
            (d.operations for d in decisions),
            strict=True,
        )
    )
    first = next(i for i, d in enumerate(decisions) if d.action == "bootstrap")
    after = [d.cost_estimate for d in decisions[first + 1 :]]
    ops = len(stream)
    failures = check_online(
        period_operations=[d.operations for d in decisions],
        stream_length=ops,
        moves=[
            (d.bytes_moved, d.budget_bytes)
            for d in decisions
            if d.action in ("replan", "migrate")
        ],
    )
    limit_s = LIMIT_MS["online"] / 1000.0
    return {
        "setup_s": setup_s,
        "region_s": region.seconds,
        "plan_s": sum(tracer.in_region("durations", "online.replan")),
        "ops_per_s": ops / region.seconds,
        "cpu_ms_per_op": region.seconds * 1000.0 / ops,
        "bytes_per_op": planned / ops,
        "ops": ops,
        "answered": report.total_operations,
        "comm_ratio": planned / hashed,
        "plan_cost": sum(after) / len(after),
        "migrated_bytes": float(report.total_bytes_moved),
        "latencies_ms": [latency * 1000.0 for latency, _ in periods],
        "latency_weights": [n for _, n in periods],
        "within_limit": sum(n for latency, n in periods if latency <= limit_s),
        "goodput_window_s": shape["duration_s"],
        "evictions": planner.estimator.heavy.evictions,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _gen_serve(seed: int) -> dict:
    from repro.serve import LoadgenConfig
    from repro.workloads.corpus_gen import generate_corpus
    from repro.workloads.query_gen import QueryWorkloadModel

    # The steps of repro.serve.build_scenario, minus the index build,
    # which belongs to the program's set-up.
    config = LoadgenConfig(seed=seed)
    vocabulary = [f"w{i:06d}" for i in range(config.vocabulary)]
    corpus = generate_corpus(config.documents, config.vocabulary, seed=MODEL_SEED)
    model = QueryWorkloadModel(vocabulary, num_topics=config.topics, seed=MODEL_SEED)
    shifted = model.drifted(config.shift_fraction, seed=MODEL_SEED + 1)
    wanted = SERVE["queries"]
    # The diurnal curve's mean rate is below base_qps: generate with
    # margin and keep the first `wanted` queries in stream order.
    stream = _drifting_stream(
        model, shifted, wanted / 1000.0 * 1.6, 1000.0, seed,
        peak_factor=config.peak_factor,
    )
    if len(stream) < wanted:
        raise RuntimeError(f"serve stream too short: {len(stream)} < {wanted}")
    return {
        "corpus": corpus,
        "queries": [timed.query for timed in stream[:wanted]],
        "warmup": model.generate(config.warmup_queries, rng=seed + 2),
    }


def _serve(seed: int, inputs: dict, import_s: float, tracer) -> dict:
    from repro.core.strategies import PlanConfig, plan
    from repro.search import engine as search_engine
    from repro.search import index as search_index
    from repro.search.query import QueryLog
    from repro.serve import AdmissionError, LoadgenConfig, QueryRouter, ServeConfig
    from repro.serve.snapshot import PlanHandle, PlanSnapshot

    scenario = LoadgenConfig(seed=seed)
    queries = inputs["queries"]
    rate = SERVE["rate_qps"]
    every = SERVE["replan_every"]

    t0 = tracer.clock()
    index = search_index.InvertedIndex.from_corpus(inputs["corpus"])
    capacities = scenario.node_capacities(float(index.total_bytes))
    snapshots: dict[int, PlanSnapshot] = {}
    costs: dict[int, float] = {}
    problems = {}

    def publish_plan(log, version: int) -> PlanSnapshot:
        # The steps of repro.serve.loadgen's replanner.
        problem = search_engine.build_placement_problem(
            index, log, capacities, correlation_mode="cooccurrence"
        )
        result = plan(problem, scenario.planner, PlanConfig(seed=seed + version))
        mapping = {
            obj: int(node)
            for obj, node in zip(problem.object_ids, result.placement.assignment)
        }
        snapshot = PlanSnapshot.from_mapping(
            index, problem, mapping, version, planner=scenario.planner
        )
        snapshots[version] = snapshot
        costs[version] = float(result.cost)
        problems[version] = problem
        return snapshot

    publish_plan = tracer.wrap("serve.replan", publish_plan)
    handle = PlanHandle(publish_plan(inputs["warmup"], 1))
    setup_s = import_s + tracer.clock() - t0

    n = len(queries)
    latency_ms = [0.0] * n
    late_ms = [0.0] * n
    lag_ms: list[float] = []
    version_of: list[int | None] = [None] * n
    bytes_of = [0] * n
    shed_reasons: list[str | None] = [None] * n
    lost: list[asyncio.Task] = []

    async def drive() -> QueryRouter:
        loop = asyncio.get_running_loop()
        router = QueryRouter(handle, ServeConfig())

        async def one(i: int, due: float) -> None:
            try:
                routed = await router.submit(queries[i])
            except AdmissionError as exc:
                shed_reasons[i] = exc.reason
                return
            latency_ms[i] = (loop.time() - due) * 1000.0
            version_of[i] = routed.version
            bytes_of[i] = routed.execution.bytes_transferred

        # Keep only unfinished tasks alive: holding every finished task
        # until the end would grow the heap the collector scans.
        pending: set[asyncio.Task] = set()

        def finished(task: asyncio.Task) -> None:
            pending.discard(task)
            if task.cancelled() or task.exception() is not None:
                lost.append(task)

        start = loop.time()
        for i in range(n):
            due = start + i / rate
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                # How late the loop woke a sleeper: its timer lag.
                lag_ms.append((loop.time() - due) * 1000.0)
            late_ms[i] = (loop.time() - due) * 1000.0
            task = loop.create_task(one(i, due))
            pending.add(task)
            task.add_done_callback(finished)
            sent = i + 1
            if sent % every == 0 and sent < n:
                # Replans sit at fixed stream positions and run on the
                # loop, blocking it like repro.serve.loadgen's replanner.
                window = QueryLog(queries[sent - every : sent])
                router.publish(publish_plan(window, sent // every + 1))
        while pending:
            await asyncio.wait(set(pending))
        await router.drain()
        return router

    loop = RefClockLoop(tracer.clock)
    try:
        with _Region(tracer) as region:
            router = loop.run_until_complete(drive())
        schedule_s = loop.time()
    finally:
        loop.close()

    answered = [i for i in range(n) if version_of[i] is not None]
    served = len(answered) - router.stats.unserved_queries
    shed = [reason for reason in shed_reasons if reason is not None]
    failures = check_serve(
        offered=n,
        answered_versions=[version_of[i] for i in answered],
        shed_reasons=shed,
        published_versions=set(snapshots),
        dropped_in_flight=router.dropped_in_flight + len(lost),
    )

    # Plan quality: replay the stream with each query on the version in
    # force when it was sent, against hash placement.  Deterministic,
    # unlike which version a batch happened to capture.
    first = problems[1]
    hash_assignment = plan(first, "hash", PlanConfig()).placement.assignment
    hashed = PlanSnapshot.from_mapping(
        index, first, dict(zip(first.object_ids, hash_assignment)), 0
    ).engine
    plan_bytes = hash_bytes = 0
    replayed: dict = {}
    for i, query in enumerate(queries):
        key = (1 + i // every, query.keywords)
        if key not in replayed:
            replayed[key] = (
                snapshots[key[0]].engine.execute(query).bytes_transferred,
                hashed.execute(query).bytes_transferred,
            )
        plan_bytes += replayed[key][0]
        hash_bytes += replayed[key][1]

    migrated = 0.0
    for version in range(2, len(snapshots) + 1):
        changed = snapshots[version - 1].assignment[:, 0] != snapshots[version].assignment[:, 0]
        migrated += float(problems[version].sizes[changed].sum())

    limit = LIMIT_MS["serve"]
    replan_s = sum(tracer.in_region("durations", "serve.replan"))
    return {
        "setup_s": setup_s,
        # The loop's clock, like every serve time.
        "region_s": schedule_s,
        "plan_s": replan_s,
        "ops_per_s": served / schedule_s,
        # Serving work only: the replans' time is plan_s.
        "cpu_ms_per_op": (region.seconds - replan_s) * 1000.0 / served,
        "bytes_per_op": sum(bytes_of[i] for i in answered) / served,
        "ops": n,
        "answered": served,
        "comm_ratio": plan_bytes / hash_bytes,
        "plan_cost": sum(costs.values()) / len(costs),
        "migrated_bytes": migrated,
        "latencies_ms": [latency_ms[i] for i in answered],
        "latency_weights": None,
        "within_limit": sum(1 for i in answered if latency_ms[i] <= limit),
        "goodput_window_s": n / rate,
        "late_ms": late_ms,
        "lag_ms": lag_ms,
        "replan_ms": [
            seconds * 1000.0 for seconds in tracer.in_region("durations", "serve.replan")
        ],
        "shed": {reason: shed.count(reason) for reason in sorted(set(shed))},
        "failures": failures,
    }
