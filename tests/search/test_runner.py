"""Runner tests: parallel/sequential equivalence and checkpoint resume.

These are the load-bearing guarantees of the parallel runner: for fixed
seeds, adding worker processes changes wall-clock only — never a single
bit of any result — and an interrupted batch picks up where it left off.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.io import dump_solution
from repro.search.runner import (
    InstanceSpec,
    SearchJob,
    StrategySpec,
    best_evaluation_of,
    derive_seeds,
    run_search_jobs,
)


def small_jobs(app, arch):
    """A mixed batch over the small fixture instance."""
    instance = InstanceSpec(app, architecture=arch)
    sa = StrategySpec("sa", {"iterations": 80, "warmup_iterations": 20})
    hill = StrategySpec("hill_climber", {"iterations": 60})
    random_spec = StrategySpec("random", {"samples": 25})
    return [
        SearchJob(sa, instance, seed=1, tag=["sa", 0]),
        SearchJob(sa, instance, seed=2, tag=["sa", 1]),
        SearchJob(hill, instance, seed=3, tag=["hill", 0]),
        SearchJob(random_spec, instance, seed=4, tag=["random", 0]),
    ]


def fingerprint(outcomes):
    return [
        (
            o.index,
            o.tag,
            o.seed,
            o.result.best_cost,
            o.result.history,
            dump_solution(o.result.best_solution),
        )
        for o in outcomes
    ]


class TestParallelEquivalence:
    def test_parallel_results_bit_identical(self, small_app, small_arch):
        jobs = small_jobs(small_app, small_arch)
        sequential = run_search_jobs(jobs, jobs=1)
        parallel = run_search_jobs(jobs, jobs=2)
        assert fingerprint(sequential) == fingerprint(parallel)

    def test_outcomes_in_submission_order(self, small_app, small_arch):
        outcomes = run_search_jobs(small_jobs(small_app, small_arch), jobs=2)
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.tag for o in outcomes] == [
            ["sa", 0], ["sa", 1], ["hill", 0], ["random", 0],
        ]

    def test_inline_jobs_isolated_from_caller(self, small_app, small_arch):
        """The caller's objects are never mutated, even inline."""
        before = dump_solution(
            run_search_jobs(
                small_jobs(small_app, small_arch), jobs=1
            )[0].result.best_solution
        )
        again = dump_solution(
            run_search_jobs(
                small_jobs(small_app, small_arch), jobs=1
            )[0].result.best_solution
        )
        assert before == again

    def test_rejects_bad_job_count(self, small_app, small_arch):
        with pytest.raises(ConfigurationError):
            run_search_jobs(small_jobs(small_app, small_arch), jobs=0)

    def test_unknown_kind_rejected(self, small_app, small_arch):
        bad = SearchJob(
            StrategySpec("gradient_descent"),
            InstanceSpec(small_app, architecture=small_arch),
        )
        with pytest.raises(ConfigurationError):
            run_search_jobs([bad])

    def test_misspelled_option_rejected(self, small_app, small_arch):
        """A typo must fail loudly, not run a different experiment."""
        bad = SearchJob(
            StrategySpec("sa", {"warmup": 100, "iterations": 50}),
            InstanceSpec(small_app, architecture=small_arch),
        )
        with pytest.raises(ConfigurationError, match="warmup"):
            run_search_jobs([bad])


#: ``numpy.random.SeedSequence(base).spawn(n)`` children's
#: ``generate_state(1)[0]``, recorded with NumPy 2.4.6: the pure-Python
#: derivation must reproduce them with or without NumPy installed.
SEED_GOLDENS = [
    (0, [3757552657, 673228719, 3241444873, 3685993406]),
    (7, [1201125462, 3618983171, 3831650445, 3842200183]),
    (42, [2684470948, 4091952314, 233227757]),
    (2**32 - 1, [973442627, 908003510]),
    (2**32, [2821894394, 1959213352]),
    (2**40 + 5, [678232507, 1581681631]),
    (2**64 + 3, [3034908674, 1847640136]),
    (2**127 + 12345, [1727869945, 2599628924]),
]

#: Single- and multi-word bases (>= 2**32, >= 2**64, 128-bit).
NUMPY_BASES = [0, 1, 7, 42, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 5,
               2**64 - 1, 2**64, 2**64 + 3, 2**96 + 7, 2**127 + 12345,
               2**128 - 1]


class TestSeeds:
    def test_derive_seeds_deterministic(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)
        assert derive_seeds(42, 5) != derive_seeds(43, 5)
        assert len(set(derive_seeds(0, 100))) == 100

    @pytest.mark.parametrize("base, expected", SEED_GOLDENS)
    def test_derive_seeds_golden(self, base, expected):
        assert derive_seeds(base, len(expected)) == expected

    def test_derive_seeds_is_prefix_stable(self):
        assert derive_seeds(7, 10)[:4] == derive_seeds(7, 4)
        assert derive_seeds(7, 0) == []

    @pytest.mark.parametrize("base", NUMPY_BASES)
    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_derive_seeds_match_numpy_seed_sequence(self, base, n):
        np_random = pytest.importorskip("numpy.random")
        children = np_random.SeedSequence(base).spawn(n)
        expected = [int(child.generate_state(1)[0]) for child in children]
        assert derive_seeds(base, n) == expected

    def test_derive_seeds_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            derive_seeds(-1, 2)
        with pytest.raises(ConfigurationError):
            derive_seeds(1, -2)
        with pytest.raises(TypeError):
            derive_seeds(1.5, 2)

    def test_unseeded_jobs_get_position_stable_seeds(
        self, small_app, small_arch
    ):
        instance = InstanceSpec(small_app, architecture=small_arch)
        spec = StrategySpec("random", {"samples": 10})
        jobs = [SearchJob(spec, instance) for _ in range(3)]
        a = run_search_jobs(jobs, jobs=1)
        b = run_search_jobs(jobs, jobs=2)
        assert all(o.seed is not None for o in a)
        assert [o.seed for o in a] == [o.seed for o in b]
        assert fingerprint(a) == fingerprint(b)


class TestCheckpoint:
    def test_round_trip_restores_everything(
        self, small_app, small_arch, tmp_path
    ):
        path = str(tmp_path / "ck.jsonl")
        jobs = small_jobs(small_app, small_arch)
        fresh = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert not any(o.from_checkpoint for o in fresh)
        resumed = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert all(o.from_checkpoint for o in resumed)
        assert fingerprint(fresh) == fingerprint(resumed)

    def test_partial_checkpoint_completes_rest(
        self, small_app, small_arch, tmp_path
    ):
        path = str(tmp_path / "ck.jsonl")
        jobs = small_jobs(small_app, small_arch)
        fresh = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        resumed = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert [o.from_checkpoint for o in resumed] == [
            True, True, False, False,
        ]
        assert fingerprint(fresh) == fingerprint(resumed)
        # the re-run jobs were appended, so a third pass is all-cached
        third = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert all(o.from_checkpoint for o in third)

    def test_changed_options_invalidate_checkpoint(
        self, small_app, small_arch, tmp_path
    ):
        """Same kind+seed but different knobs must recompute — a resumed
        sweep with more iterations must not reuse short-run results."""
        path = str(tmp_path / "ck.jsonl")
        instance = InstanceSpec(small_app, architecture=small_arch)
        short = [SearchJob(
            StrategySpec("sa", {"iterations": 40, "warmup_iterations": 10}),
            instance, seed=1,
        )]
        long_run = [SearchJob(
            StrategySpec("sa", {"iterations": 80, "warmup_iterations": 10}),
            instance, seed=1,
        )]
        run_search_jobs(short, jobs=1, checkpoint_path=path)
        resumed = run_search_jobs(long_run, jobs=1, checkpoint_path=path)
        assert resumed[0].from_checkpoint is False
        assert resumed[0].result.iterations_run == 80

    def test_stale_rows_are_recomputed(self, small_app, small_arch, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        jobs = small_jobs(small_app, small_arch)
        run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        rows = [json.loads(line) for line in open(path)]
        rows[0]["seed"] = 999  # pretend the batch definition changed
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        resumed = run_search_jobs(jobs, jobs=1, checkpoint_path=path)
        assert resumed[0].from_checkpoint is False
        assert all(o.from_checkpoint for o in resumed[1:])


class TestBestEvaluationOf:
    def test_matches_best_cost(self, small_app, small_arch):
        outcome = run_search_jobs(
            small_jobs(small_app, small_arch), jobs=1
        )[0]
        evaluation = best_evaluation_of(outcome.result)
        assert evaluation.makespan_ms == pytest.approx(
            outcome.result.best_cost
        )
