"""``expand``: the paper's path — queries that name a perceptual attribute.

One analyst connection runs a closed loop over an in-memory catalog built
from the synthetic movie corpus at the experiment default scale (800
items, 2,000 users, 50 ratings per user).  Set-up fits the
Euclidean-embedding perceptual space and loads fresh copies of the factual
table, so every operation is a real expansion.  Operations alternate
between the two public routes:

* route ``A`` — ``SELECT count(*) FROM a<k> WHERE is_<genre> = ?`` on a
  table without that column: ``conn.expansion()`` with
  ``PerceptualSpacePolicy`` adds it (a crowd gold sample, then an SVM
  over the space);
* route ``B`` — the same query on a table that declares the column
  ``PERCEPTUAL`` with every cell ``MISSING``: ``CrowdFill`` buys a sample
  through the acquisition runtime and ``PredictFill`` predicts the rest.

Both routes train on 200 crowd labels (gold sample size = 25 % of 800),
so neither route dominates the latency distribution.  A cycle is one
query per genre and route (12 operations); the cost of an attribute
depends only on the seed and the attribute, so dollars, platform calls
and the answer g-mean over whole cycles repeat exactly for a seed.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

import repro
from repro.core import GoldSampleCollector, PerceptualSpacePolicy
from repro.core.prediction import PerceptualPredictor
from repro.crowd import CrowdPlatform, WorkerPool
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.datasets import build_movie_corpus
from repro.db import AcquisitionPolicy
from repro.learn.metrics import g_mean
from repro.perceptual import EuclideanEmbeddingModel, FactorModelConfig
from repro.utils.rng import derive_seed, spawn_rng

from common import CheckFailed, Measurement, closed_loop, peak_rss_mb, timed
from dblayers import instrument_db, sql_layer_metrics
from tracing import TimedModule, Tracer, per_op

N_MOVIES = 800
N_USERS = 2000
RATINGS_PER_USER = 50
N_FACTORS = 24
N_EPOCHS = 20
#: The experiment default corpus and space are those of seed 0
#: (``MovieExperimentConfig``); ``--seed`` drives the query order and every
#: crowd-side draw, so the learning work per query still varies with it.
CORPUS_SEED = 0
#: Simulated platform round-trip of one value-source dispatch (seconds).
ROUNDTRIP_S = 0.02
GOLD_SAMPLE_SIZE = 200
SAMPLE_FRACTION = 0.25
CROWD_BATCH_SIZE = 50
#: Mean operation latency the table copies loaded in set-up are sized for:
#: a loop of S seconds may run S / MIN_OP_S operations.  On a 2-vCPU host
#: the mean is about 0.35 s, and about 0.1 s with ``SVC.fit`` taken out; the
#: hard floor is one 20 ms round-trip per ``CrowdFill``.  A loop that runs
#: out of copies reports ``correct: false`` instead of ending early.
MIN_OP_S = 0.05
#: Output check: the mean g-mean of filled values must stay above this.
GMEAN_FLOOR = 0.70


class MeteredPlatform(CrowdPlatform):
    """The simulated platform, billing each HIT group it runs."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.charges: list[float] = []

    def run_group(self, group: Any, pool: Any, **kwargs: Any) -> Any:
        result = super().run_group(group, pool, **kwargs)
        self.charges.append(result.total_cost)
        return result


class ExpandWorkload:
    name = "expand"

    def __init__(self, seed: int, seconds: float, workdir: Any) -> None:
        self.seed = seed
        self.seconds = seconds
        self.corpus_s: list[float] = []
        self.fit_s: list[float] = []
        self.ops: list[dict[str, Any]] = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        seed = self.seed
        corpus, corpus_s = timed(
            lambda: build_movie_corpus(
                n_movies=N_MOVIES,
                n_users=N_USERS,
                ratings_per_user=RATINGS_PER_USER,
                seed=CORPUS_SEED,
            )
        )
        model = EuclideanEmbeddingModel(
            FactorModelConfig(
                n_factors=N_FACTORS, n_epochs=N_EPOCHS, seed=CORPUS_SEED
            )
        )
        _, fit_s = timed(lambda: model.fit(corpus.ratings))
        self.corpus_s.append(corpus_s)
        self.fit_s.append(fit_s)
        space = model.to_space()

        self.truth = {
            f"is_{genre.lower()}": corpus.labels_for(genre)
            for genre in sorted(corpus.ground_truth)
        }
        attributes = sorted(self.truth)
        self.cycle_length = 2 * len(attributes)
        n_cycles = math.ceil(self.seconds / MIN_OP_S / self.cycle_length) + 1
        self.plan = self._plan(attributes, n_cycles)

        conn = repro.connect()
        rows = [(r["item_id"], r["name"], r["year"]) for r in corpus.items]
        declared = ", ".join(f"{attribute} BOOLEAN PERCEPTUAL" for attribute in attributes)
        for cycle in range(n_cycles):
            conn.execute(
                f"CREATE TABLE a{cycle} (item_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
            )
            conn.execute(
                f"CREATE TABLE b{cycle} (item_id INTEGER PRIMARY KEY, name TEXT,"
                f" year INTEGER, {declared})"
            )
            for table in (f"a{cycle}", f"b{cycle}"):
                conn.executemany(
                    f"INSERT INTO {table} (item_id, name, year) VALUES (?, ?, ?)", rows
                )

        self.gold_platform = MeteredPlatform(seed=derive_seed(seed, "gold-platform"))
        analysts = WorkerPool.build(
            n_honest=25, n_experts=10, n_spammers=10, seed=derive_seed(seed, "gold-pool")
        )
        collector = GoldSampleCollector(
            self.gold_platform, analysts.only_trusted(), seed=derive_seed(seed, "gold")
        )
        policy = PerceptualSpacePolicy(
            space,
            collector,
            gold_sample_size=GOLD_SAMPLE_SIZE,
            seed=derive_seed(seed, "extractor"),
        )
        conn.expansion().with_policy(policy).with_key("item_id").with_truth(
            self.truth
        ).allow(*attributes).attach()

        self.fill_platform = MeteredPlatform(seed=derive_seed(seed, "fill-platform"))
        source = SimulatedCrowdValueSource(
            self.fill_platform,
            WorkerPool.build(n_experts=40, seed=derive_seed(seed, "fill-pool")),
            truth=self.truth,
            judgments_per_item=3,
            items_per_hit=10,
            seed=derive_seed(seed, "fill"),
            latency_seconds=ROUNDTRIP_S,
        )
        conn.set_value_source(source)
        conn.set_policy(
            AcquisitionPolicy(sample_fraction=SAMPLE_FRACTION, crowd_batch_size=CROWD_BATCH_SIZE)
        )
        conn.set_predictor(PerceptualPredictor(space, seed=derive_seed(seed, "predictor")))
        self.conn = conn
        self.ops = []

    def _plan(self, attributes: list[str], n_cycles: int) -> list[tuple[str, str, str]]:
        """Seeded operation order: per cycle a genre permutation, routes alternating."""
        plan = []
        for cycle in range(n_cycles):
            order = spawn_rng(self.seed, "expand-order", cycle).permutation(len(attributes))
            for index in order:
                attribute = attributes[int(index)]
                plan.append(("A", f"a{cycle}", attribute))
                plan.append(("B", f"b{cycle}", attribute))
        return plan

    def close(self) -> None:
        self.conn.close()

    # -- timed loop ----------------------------------------------------------

    def _calls(self) -> int:
        return len(self.gold_platform.charges) + len(self.fill_platform.charges)

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Measurement:
        session = self.conn.session
        offset = len(self.ops)

        def step(i: int) -> None:
            route, table, attribute = self.plan[offset + i]
            if tracer is not None:
                tracer.op_id = offset + i
            cost, calls = session.cost_spent, self._calls()
            (count,) = self.conn.execute(
                f"SELECT count(*) FROM {table} WHERE {attribute} = ?", (True,)
            ).fetchone()
            self.ops.append(
                {
                    "route": route,
                    "table": table,
                    "attribute": attribute,
                    "count": count,
                    "cost": session.cost_spent - cost,
                    "calls": self._calls() - calls,
                }
            )

        # Each loop gets the share of the plan its seconds are sized for, so
        # the traced half of a --trace 1 run never finds the plan used up.
        limit = min(len(self.plan) - offset, math.ceil(seconds / MIN_OP_S))
        return closed_loop(seconds, step, limit=limit)

    # -- checks and exact metrics --------------------------------------------

    def verify(self) -> None:
        """No MISSING left, dollars = per-dispatch charges, each attribute paid once."""
        conn, session = self.conn, self.conn.session
        charged = sum(self.gold_platform.charges) + sum(self.fill_platform.charges)
        if not math.isclose(charged, session.cost_spent, rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed(
                f"session charged ${session.cost_spent:.6f} but platform dispatches "
                f"cost ${charged:.6f}"
            )
        for op in self.ops:
            table, attribute = op["table"], op["attribute"]
            missing = conn.missing_count(table, attribute)
            if missing:
                raise CheckFailed(f"{table}.{attribute} kept {missing} MISSING cells")
            if op["cost"] <= 0 or op["calls"] < 1:
                raise CheckFailed(f"{table}.{attribute} was expanded without a paid dispatch")
            cost, calls = session.cost_spent, self._calls()
            rows = conn.execute(f"SELECT item_id, {attribute} FROM {table}").fetchall()
            (count,) = conn.execute(
                f"SELECT count(*) FROM {table} WHERE {attribute} = ?", (True,)
            ).fetchone()
            if session.cost_spent != cost or self._calls() != calls:
                raise CheckFailed(f"{table}.{attribute} was paid for a second time")
            if count != op["count"]:
                raise CheckFailed(
                    f"{table}.{attribute}: repeat query gave {count}, not {op['count']}"
                )
            truth = self.truth[attribute]
            op["gmean"] = g_mean(
                [bool(truth[item]) for item, _ in rows], [bool(value) for _, value in rows]
            )
        mean_gmean = self.crowd_metrics()["answer_gmean"]
        if mean_gmean < GMEAN_FLOOR:
            raise CheckFailed(f"answer g-mean {mean_gmean:.4f} fell below {GMEAN_FLOOR}")

    def _whole_cycles(self) -> list[dict[str, Any]]:
        whole = len(self.ops) // self.cycle_length * self.cycle_length
        return self.ops[:whole] if whole else self.ops

    def crowd_metrics(self) -> dict[str, float]:
        """Dollars, platform calls and g-mean per attribute over whole cycles."""
        ops = self._whole_cycles()
        # verify() scores the attributes; a failed check may stop it early.
        gmeans = [op["gmean"] for op in ops if "gmean" in op]
        return {
            "usd_per_attr": sum(op["cost"] for op in ops) / len(ops),
            "platform_calls_per_attr": sum(op["calls"] for op in ops) / len(ops),
            "answer_gmean": statistics.fmean(gmeans) if gmeans else math.nan,
        }

    def report(self) -> list[str]:
        crowd = self.crowd_metrics()
        n = len(self._whole_cycles())
        return [
            f"usd_per_attr {crowd['usd_per_attr']:.6f} usd (over {n} attributes in whole cycles)",
            f"platform_calls_per_attr {crowd['platform_calls_per_attr']:.6f} count",
            f"answer_gmean {crowd['answer_gmean']:.6f} ratio (floor {GMEAN_FLOOR})",
            f"simulated crowd round-trip {ROUNDTRIP_S * 1000:.0f} ms per dispatch",
        ]

    def end_to_end(self) -> dict[str, float]:
        return {"peak_rss_mb": peak_rss_mb()}

    # -- tracing -------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        import repro.crowd.sources as sources
        from repro.core.extractor import PerceptualAttributeExtractor
        from repro.core.schema_expansion import SchemaExpander
        from repro.crowd.aggregation import MajorityVote
        from repro.crowd.runtime import AcquisitionRuntime
        from repro.learn.kernels import LinearKernel, PolynomialKernel, RBFKernel
        from repro.learn.svm import SVC

        def on_run(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.count("platform.judgments", len(result.judgments))
            tracer.count("platform.cells", len(result.group.items))

        def on_dispatch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.count("sources.cells", len(args[2]))

        def on_gold(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.count("gold.judgments", result.judgments_used)

        self.runtime_before = dict(self.conn.acquisition_runtime().stats())
        self.cache_before = self.conn.cache_stats()
        instrument_db(tracer)
        tracer.patch_method(AcquisitionRuntime, "acquire", "crowd.runtime")
        tracer.patch_method(
            SimulatedCrowdValueSource, "request_values_with_cost", "crowd.sources", on_dispatch
        )
        sleep = TimedModule(sources.time, tracer, {"sleep": "crowd.sources.sleep"})
        tracer.patch_object(sources, "time", sleep)
        tracer.patch_method(CrowdPlatform, "run_group", "crowd.platform", on_run)
        tracer.patch_method(MajorityVote, "aggregate", "crowd.aggregation")
        tracer.patch_method(MajorityVote, "labels", "crowd.aggregation")
        tracer.patch_method(SchemaExpander, "expand_attribute", "core.schema_expansion")
        tracer.patch_method(GoldSampleCollector, "collect_balanced", "core.gold_sample", on_gold)
        tracer.patch_method(PerceptualAttributeExtractor, "extract_boolean", "core.extractor")
        tracer.patch_method(PerceptualPredictor, "fit_predict", "core.prediction")
        tracer.patch_method(SVC, "fit", "learn.svm")
        for kernel in (RBFKernel, LinearKernel, PolynomialKernel):
            tracer.patch_method(kernel, "__call__", "learn.kernels")

    def collect(self) -> None:
        self.runtime_after = self.conn.acquisition_runtime().stats()
        self.cache_after = self.conn.cache_stats()

    def layer_metrics(self, tracer: Tracer, traced: Measurement) -> dict[str, float]:
        summary = tracer.summary()
        inclusive, calls, counts = summary["inclusive_s"], summary["calls"], summary["counts"]
        ops = len(traced.latencies)
        busy = sum(traced.latencies)
        after, before = self.runtime_after, self.runtime_before
        cache_after, cache_before = after["cache"], before["cache"]
        lookups = (cache_after.hits + cache_after.misses) - (
            cache_before.hits + cache_before.misses
        )
        crowd = self.crowd_metrics()
        svm = inclusive.get("learn.svm", 0.0)
        statements = (self.cache_after.hits + self.cache_after.misses) - (
            self.cache_before.hits + self.cache_before.misses
        )
        metrics = sql_layer_metrics(summary, ops, rows=ops)
        metrics["db.connection.stmt_cache_hit_rate"] = per_op(
            self.cache_after.hits - self.cache_before.hits, statements
        )
        return metrics | {
            "crowd.runtime.acquire_ms": per_op(inclusive.get("crowd.runtime", 0.0), ops, 1e3),
            "crowd.runtime.dispatch_wait_ms": per_op(inclusive.get("crowd.sources", 0.0), ops, 1e3),
            "crowd.runtime.dispatches": per_op(after["dispatches"] - before["dispatches"], ops),
            "crowd.runtime.cache_hit_rate": (
                (cache_after.hits - cache_before.hits) / lookups if lookups else 0.0
            ),
            "crowd.runtime.coalesced": per_op(after["coalesced"] - before["coalesced"], ops),
            "crowd.platform.run_group_ms": per_op(inclusive.get("crowd.platform", 0.0), ops, 1e3),
            "crowd.platform.calls": per_op(calls.get("crowd.platform", 0), ops),
            "crowd.sources.roundtrip_wait_ms": per_op(
                inclusive.get("crowd.sources.sleep", 0.0), ops, 1e3
            ),
            "crowd.sources.cells_per_call": per_op(
                counts.get("sources.cells", 0), calls.get("crowd.sources", 0)
            ),
            "crowd.aggregation.aggregate_ms": per_op(
                inclusive.get("crowd.aggregation", 0.0), ops, 1e3
            ),
            "crowd.worker_quality.judgments_per_cell": per_op(
                counts.get("platform.judgments", 0), counts.get("platform.cells", 0)
            ),
            "crowd.usd_per_attr": crowd["usd_per_attr"],
            "crowd.platform_calls_per_attr": crowd["platform_calls_per_attr"],
            "core.answer_gmean": crowd["answer_gmean"],
            "core.schema_expansion.expand_ms": per_op(
                inclusive.get("core.schema_expansion", 0.0), ops, 1e3
            ),
            "core.gold_sample.collect_ms": per_op(inclusive.get("core.gold_sample", 0.0), ops, 1e3),
            "core.gold_sample.judgments": per_op(counts.get("gold.judgments", 0), ops),
            "core.extractor.extract_ms": per_op(inclusive.get("core.extractor", 0.0), ops, 1e3),
            "core.prediction.fit_predict_ms": per_op(
                inclusive.get("core.prediction", 0.0), ops, 1e3
            ),
            "learn.svm.fit_ms": per_op(svm, ops, 1e3),
            "learn.svm.fit_share": svm / busy if busy else 0.0,
            "learn.kernels.gram_ms": per_op(inclusive.get("learn.kernels", 0.0), ops, 1e3),
            "perceptual.fit_s": statistics.median(self.fit_s),
            "datasets.corpus_s": statistics.median(self.corpus_s),
        }
