"""The worker thread of the Monte Carlo runners.

``pauli_tomography._worker`` advances a generator of a call's draws (and of a
null experiment's law) on one thread, a bounded number of values ahead of the
caller.  These tests pin its contract alone and through both runners: one
worker per call, values in order, an exception handed over as the same
object, and no thread left running after a success or any error.  In the
names of the ``TestWorker`` tests, a job is the making of one value.
"""

import threading
import time

import numpy as np
import pytest

from conftest import rand_state, two_hypotheses
from qdivstat import divergences, experiments, hypothesis_testing, pauli_tomography
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

        def values():
            for i in order:
                time.sleep(1e-5 * (i % 3))  # uneven times to make a value
                yield i

        before = threading.active_count()
        with _worker(values()) as take:
            assert [take() for _ in order] == order.tolist()
            with pytest.raises(StopIteration):
                take()
        assert threading.active_count() == before

    def test_runs_at_most_the_bound_ahead(self):
        made = []

        def values():
            for i in range(20):
                made.append(i)
                yield i

        with _worker(values()) as take:
            _wait_for(lambda: len(made) == _WORKER_AHEAD)
            time.sleep(0.05)
            assert made == list(range(_WORKER_AHEAD))  # not advanced while every slot holds an unread value
            assert take() == 0
            _wait_for(lambda: len(made) == _WORKER_AHEAD + 1)
        assert made == list(range(_WORKER_AHEAD + 1))

    def test_leaving_early_stops_after_the_current_job(self):
        started, release = threading.Event(), threading.Event()
        made = []

        def values():
            started.set()
            release.wait(TIMEOUT_S)
            made.append("slow")
            yield "slow"
            while True:
                made.append("later")
                yield "later"

        before = threading.active_count()
        with pytest.raises(KeyError):
            with _worker(values()):
                started.wait(TIMEOUT_S)
                threading.Timer(0.1, release.set).start()  # by then the caller is joining the worker
                raise KeyError("the caller failed")
        assert made == ["slow"]  # the value being made was finished, and no later one started
        _wait_for(lambda: threading.active_count() == before)  # the Timer's thread ends after release

    def test_job_error_is_raised_once_and_unchanged(self):
        error = ArithmeticError("value 2 failed")
        made = []

        def value(i):
            made.append(i)
            if i == 2:
                raise error
            return i

        before = threading.active_count()
        # a map, unlike a generator, would go on to value 3 if it were advanced after the error
        with _worker(map(value, range(10))) as take:
            assert [take(), take()] == [0, 1]
            with pytest.raises(ArithmeticError) as info:
                take()
        assert info.value is error
        assert made == [0, 1, 2]
        assert threading.active_count() == before

    def test_caller_context_reaches_the_jobs(self):
        def values():
            yield np.geterr()["over"], threading.get_ident()

        with np.errstate(over="raise"), _worker(values()) as take:
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
        transform = pauli_tomography.bloch_coefficients
        drawn_on, law_on, transformed_on = [], [], []

        def recorded(*args):
            drawn_on.append(threading.get_ident())
            return draw(*args)

        def law(cfg, basis):
            law_on.append(threading.get_ident())
            return weights(cfg, basis)

        def bloch(rho, basis):
            transformed_on.append(threading.get_ident())
            return transform(rho, basis)

        monkeypatch.setattr(module, "sample_counts", recorded)
        monkeypatch.setattr(module, "bloch_coefficients", bloch)
        monkeypatch.setattr(experiments, "null_law_weights", law)
        before = threading.active_count()
        RUNS[run]()
        assert threading.active_count() == before
        assert starts == ["qdivstat-worker"]
        assert len(drawn_on) > _WORKER_AHEAD and set(drawn_on) | set(law_on) | set(transformed_on) == {drawn_on[0]}
        assert drawn_on[0] != threading.get_ident()
        assert len(law_on) == (run == "one_sample_null")
        assert len(transformed_on) == (1 if run == "one_sample_null" else 2)  # each sampled state once

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
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            ExperimentConfig(kind="one_sample_null", rho=rho, n_grid=(100,), trials=100, seed=-1)
        assert starts == []

    @pytest.mark.parametrize("d", [2, 64])
    def test_hypothesis_draws_overlap_the_state_eigensolves(self, monkeypatch, d):
        # more states than the worker holds values: it must draw before the last state's
        # eigensolve, for the caller reads nothing from it until every state is eigensolved
        basis = pauli_tomography.build_pauli_basis(d.bit_length() - 1)
        sigma = np.eye(d) / d
        # the one-qubit states of Bloch vector (0, 0, s3), tensored with I / (d / 2)
        states = [np.kron(np.diag([1 + s3, 1 - s3]) / 2, np.eye(d // 2) / (d // 2))
                  for s3 in np.linspace(0.1, 0.85, _WORKER_AHEAD + 2)]
        divs = [divergences.umegaki(rho, sigma).value for rho in states]
        grid = hypothesis_testing.HypothesisGrid((0.0, *((a + b) / 2 for a, b in zip(divs, divs[1:])), 1.0))
        draw, eig = pauli_tomography.sample_counts, hypothesis_testing.eig_hermitian
        drawn, solved = [], []

        def recorded(*args):
            drawn.append(args)
            return draw(*args)

        def waiting(A, **kw):
            solved.append(A)
            if len(solved) == len(states) + 1:  # sigma's, then each state's
                _wait_for(lambda: drawn)
            return eig(A, **kw)

        monkeypatch.setattr(hypothesis_testing, "sample_counts", recorded)
        monkeypatch.setattr(hypothesis_testing, "eig_hermitian", waiting)
        rows = simulate_error_rates(states, sigma, grid, tau=0.3, n=200, trials=10, seed=3, basis=basis)
        assert len(rows) == len(states) and len(drawn) == len(states)

    @pytest.mark.parametrize("change, match", [
        (lambda kw: dict(kw, states=[np.eye(4) / 4, kw["states"][1]]), "^state dimension does not match the basis$"),
        (lambda kw: dict(kw, basis=pauli_tomography.PauliBasisSet(2)), "^state dimension does not match the basis$"),
        (lambda kw: dict(kw, states=kw["states"] + [np.eye(2) / 2]), "^3 states for 2 hypotheses$"),
        (lambda kw: dict(kw, sigma=np.eye(3) / 3), "^dimension 3 is not a power of two"),
        # The message now names the input; the ids stay those the cases had before it did.
        pytest.param(lambda kw: dict(kw, states=[kw["states"][0], np.triu(np.ones((2, 2))) / 2]),
                     "^state 1: matrix is not Hermitian", id="<lambda>-^matrix is not Hermitian"),
        pytest.param(lambda kw: dict(kw, sigma=np.triu(np.ones((2, 2))) / 2),
                     r"^sigma: matrix is not Hermitian \(asymmetry", id=r"<lambda>-^matrix is not Hermitian \(asymmetry"),
        (lambda kw: dict(kw, sigma=np.eye(4) / 4, basis=pauli_tomography.PauliBasisSet(1)),
         "^sigma dimension does not match the basis$"),
        (lambda kw: dict(kw, seed=-1), "^seed must be non-negative, got -1$"),
        (lambda kw: dict(kw, trials=0), "^trials must be positive$"),
        (lambda kw: dict(kw, tau=1.0), "^tau must be in"),
        (lambda kw: dict(kw, c=float("nan")), "^c must be finite, got nan$"),
        (lambda kw: dict(kw, c=float("inf")), "^c must be finite, got inf$"),
        (lambda kw: dict(kw, c=1.0, b=5.0), r"^b must be in \(0, 1\), got 5.0$"),
        (lambda kw: dict(kw, b=0.0), r"^b must be in \(0, 1\), got 0.0$"),
    ])
    def test_hypothesis_input_errors_start_no_worker(self, monkeypatch, starts, change, match):
        states, sigma, grid = two_hypotheses()
        drawn = []

        def recorded(*args):
            drawn.append(args)
            return pauli_tomography.sample_counts(*args)

        monkeypatch.setattr(hypothesis_testing, "sample_counts", recorded)
        kw = change(dict(states=states, sigma=sigma, grid=grid, tau=0.3, n=20, trials=150, seed=17))
        before = threading.active_count()
        with pytest.raises(ValueError, match=match):
            simulate_error_rates(**kw)
        assert starts == [] and drawn == []
        assert threading.active_count() == before

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

