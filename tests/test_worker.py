"""The worker thread of the Monte Carlo runners.

``pauli_tomography._worker`` runs a call's draws (and a null experiment's law)
in order on one thread, a bounded number of values ahead of the caller.  These
tests pin its contract alone and through both runners: one worker per call,
values in order, an exception handed over as the same object, and no thread
left running after a success or any error.
"""

import threading
import time

import numpy as np
import pytest

from conftest import rand_state, two_hypotheses
from qdivstat import experiments, hypothesis_testing, pauli_tomography
from qdivstat.experiments import ExperimentConfig, run_convergence_experiment
from qdivstat.hypothesis_testing import simulate_error_rates
from qdivstat.pauli_tomography import _WORKER_AHEAD, _worker

# Generous bound on any one wait in these tests; a healthy run waits microseconds.
TIMEOUT_S = 30


def _wait_for(condition):
    """Poll ``condition`` until it holds; fail after TIMEOUT_S."""
    for _ in range(TIMEOUT_S * 1000):
        if condition():
            return
        time.sleep(1e-3)
    pytest.fail("condition not reached")


class TestWorker:
    def test_values_come_in_job_order(self):
        order = np.random.default_rng(5).permutation(40)

        def job(i):
            time.sleep(1e-5 * (i % 3))  # uneven job lengths
            return i

        before = threading.active_count()
        with _worker(lambda i=i: job(i) for i in order) as take:
            assert [take() for _ in order] == order.tolist()
        assert threading.active_count() == before

    def test_runs_at_most_the_bound_ahead(self):
        ran = []
        with _worker(lambda i=i: ran.append(i) or i for i in range(20)) as take:
            _wait_for(lambda: len(ran) == _WORKER_AHEAD)
            time.sleep(0.05)
            assert ran == list(range(_WORKER_AHEAD))  # no job runs while every slot holds an unread value
            assert take() == 0
            _wait_for(lambda: len(ran) == _WORKER_AHEAD + 1)
        assert ran == list(range(_WORKER_AHEAD + 1))

    def test_leaving_early_stops_after_the_current_job(self):
        started, release = threading.Event(), threading.Event()
        ran = []

        def slow():
            started.set()
            release.wait(TIMEOUT_S)
            ran.append("slow")

        jobs = [slow] + [lambda: ran.append("later")] * 10
        before = threading.active_count()
        with pytest.raises(KeyError):
            with _worker(jobs):
                started.wait(TIMEOUT_S)
                threading.Timer(0.1, release.set).start()  # by then the caller is joining the worker
                raise KeyError("the caller failed")
        assert ran == ["slow"]  # the current job finished, and no later one started
        _wait_for(lambda: threading.active_count() == before)  # the Timer's thread ends after release

    def test_job_error_is_raised_once_and_unchanged(self):
        error = ArithmeticError("job 2 failed")
        ran = []

        def job(i):
            ran.append(i)
            if i == 2:
                raise error
            return i

        before = threading.active_count()
        with _worker(lambda i=i: job(i) for i in range(10)) as take:
            assert [take(), take()] == [0, 1]
            with pytest.raises(ArithmeticError) as info:
                take()
        assert info.value is error
        assert ran == [0, 1, 2]  # no job after the failing one
        assert threading.active_count() == before

    def test_caller_context_reaches_the_jobs(self):
        with np.errstate(over="raise"), _worker([lambda: (np.geterr()["over"], threading.get_ident())]) as take:
            over, ident = take()
        assert ident != threading.get_ident()
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # numpy 2 keeps np.errstate in a context variable
            assert over == "raise"


def _experiment(kind, **kw):
    rng = np.random.default_rng(71)
    sigma = None if kind in experiments.NULL_KINDS else rand_state(rng, 4, 0.1)
    return ExperimentConfig(kind=kind, rho=rand_state(rng, 4, 0.1), sigma=sigma, n_grid=(100, 1000),
                            trials=100, seed=72, **kw)


RUNS = {
    "one_sample_null": lambda **kw: run_convergence_experiment(_experiment("one_sample_null", **kw)),
    "two_sample_alt": lambda **kw: run_convergence_experiment(_experiment("two_sample_alt", **kw)),
    "hypothesis": lambda: simulate_error_rates(*two_hypotheses(), tau=0.3, n=20, trials=150, seed=17),
}
DRAWING_MODULE = {"one_sample_null": experiments, "two_sample_alt": experiments, "hypothesis": hypothesis_testing}


@pytest.fixture
def small_stacks(monkeypatch):
    """Stacks of 7 trials, so that every run has more stacks than the worker holds values."""
    monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", 7 * 4 * 4)


@pytest.fixture
def starts(monkeypatch):
    """The names of the threads started during the test."""
    names, start = [], threading.Thread.start

    def recorded(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return names


class TestRunnersUseOneWorker:
    @pytest.mark.parametrize("run", RUNS)
    def test_one_worker_per_call(self, monkeypatch, small_stacks, starts, run):
        module, draw, weights = DRAWING_MODULE[run], pauli_tomography.sample_counts, experiments.null_law_weights
        drawn_on, law_on = [], []

        def recorded(*args):
            drawn_on.append(threading.get_ident())
            return draw(*args)

        def law(cfg, basis):
            law_on.append(threading.get_ident())
            return weights(cfg, basis)

        monkeypatch.setattr(module, "sample_counts", recorded)
        monkeypatch.setattr(experiments, "null_law_weights", law)
        before = threading.active_count()
        RUNS[run]()
        assert threading.active_count() == before
        assert starts == ["qdivstat-worker"]
        assert len(drawn_on) > _WORKER_AHEAD and set(drawn_on) | set(law_on) == {drawn_on[0]}
        assert drawn_on[0] != threading.get_ident()
        assert len(law_on) == (run == "one_sample_null")

    @pytest.mark.parametrize("run", RUNS)
    def test_draw_error_reaches_the_caller_unchanged(self, monkeypatch, small_stacks, tmp_path, run):
        module, draw = DRAWING_MODULE[run], pauli_tomography.sample_counts
        calls, error = [], RuntimeError("draw 3 failed")

        def failing(*args):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise error
            return draw(*args)

        monkeypatch.setattr(module, "sample_counts", failing)
        kw = {} if run == "hypothesis" else {"output_path": str(tmp_path / "rows.csv")}
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            RUNS[run](**kw)
        assert info.value is error
        assert len(calls) == 3  # the worker ran no job after the failing one
        assert threading.active_count() == before
        assert list(tmp_path.iterdir()) == []

    def test_law_error_reaches_the_caller_unchanged(self, monkeypatch, small_stacks, tmp_path):
        error = ValueError("weights failed")

        def failing(cfg, basis):
            raise error

        monkeypatch.setattr(experiments, "null_law_weights", failing)
        before = threading.active_count()
        with pytest.raises(ValueError) as info:
            RUNS["one_sample_null"](output_path=str(tmp_path / "rows.csv"))
        assert info.value is error
        assert threading.active_count() == before
        assert list(tmp_path.iterdir()) == []

    def test_caller_error_stops_the_worker(self, monkeypatch, small_stacks, starts):
        calls = []

        def failing(*args):
            calls.append(args)
            raise ArithmeticError("estimate failed")

        monkeypatch.setattr(experiments, "estimate_stack", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="estimate failed"):
            RUNS["one_sample_null"]()
        assert threading.active_count() == before
        assert starts == ["qdivstat-worker"] and len(calls) == 1

    def test_experiment_input_errors_start_no_worker(self, starts):
        rho = np.diag([0.7, 0.3])
        cfg = ExperimentConfig(kind="two_sample_alt", rho=rho, sigma=rho.copy(), n_grid=(100,), trials=100)
        with pytest.raises(ValueError, match="v_pred"):
            run_convergence_experiment(cfg)
        cfg = ExperimentConfig(kind="one_sample_null", rho=np.diag([1.0, 0.0]), n_grid=(100,), trials=100)
        with pytest.raises(ValueError, match="strictly positive"):
            run_convergence_experiment(cfg)
        assert starts == []

    @pytest.mark.parametrize("change, match", [
        (lambda states, sigma, grid: ([states[1], states[0]], sigma, grid), "outside bucket"),
        (lambda states, sigma, grid: (states, 1.5 * sigma, grid), "^sigma has trace off 1"),
        (lambda states, sigma, grid: ([states[0], np.diag([1.1, -0.1])], sigma, grid), "^state 1 has negative"),
    ])
    def test_hypothesis_input_error_joins_the_worker(self, small_stacks, starts, change, match):
        before = threading.active_count()
        with pytest.raises(ValueError, match=match):
            simulate_error_rates(*change(*two_hypotheses()), tau=0.3, n=20, trials=150, seed=17)
        assert starts == ["qdivstat-worker"]  # the draws start before the checks that need eigensolves
        assert threading.active_count() == before

