import json

import numpy as np
import pytest

from qdivstat import io as qio
from qdivstat.divergences import eigenbasis_povm
from qdivstat.experiments import ExperimentConfig

from conftest import rand_state


class TestMatrixFormat:
    def test_round_trip(self, rng):
        M = rand_state(rng, 3)
        obj = qio.matrix_to_json(M)
        assert obj["dim"] == 3
        back = qio.matrix_from_json(obj)
        assert np.allclose(back, M)

    def test_file_round_trip(self, rng, tmp_path):
        M = rand_state(rng, 2)
        path = tmp_path / "m.json"
        qio.dump_matrix(M, str(path))
        assert np.allclose(qio.read_json(str(path), qio.matrix_from_json), M)
        # the payload is plain JSON with re/im blocks
        raw = json.loads(path.read_text())
        assert set(raw) == {"dim", "re", "im"}

    def test_imaginary_block_optional(self):
        M = qio.matrix_from_json({"dim": 2, "re": [[1, 0], [0, 0]]})
        assert np.allclose(M, np.diag([1.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qio.matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]]})

    @pytest.mark.parametrize("block", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entries(self, block, bad):
        obj = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        obj[block][0][1] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            qio.matrix_from_json(obj)


class TestPovmFormat:
    def test_povm_round_trip(self, rng):
        M = eigenbasis_povm(rand_state(rng, 3))
        back = qio.povm_from_json(json.loads(json.dumps([qio.matrix_to_json(E) for E in M.elements])))
        assert back.outcome_count == M.outcome_count
        for a, b in zip(M.elements, back.elements):
            assert np.allclose(a, b)


class TestScenarioAndConfig:
    def test_scenario_parsing(self, rng):
        obj = {
            "states": [qio.matrix_to_json(rand_state(rng, 2))],
            "sigma": qio.matrix_to_json(rand_state(rng, 2)),
            "epsilons": [0.0, 0.5],
            "tau": 0.05,
            "n": 100,
            "trials": 10,
            "seed": 3,
        }
        scenario = qio.scenario_from_json(obj)
        assert scenario["grid"].hypothesis_count == 1
        assert scenario["n"] == 100 and scenario["seed"] == 3

    def test_config_requires_seed(self, rng):
        obj = {"kind": "one_sample_null", "rho": qio.matrix_to_json(rand_state(rng, 2))}
        with pytest.raises(ValueError, match="seed"):
            qio.config_from_json(obj)

    def test_config_parsing(self, rng):
        obj = {"kind": "one_sample_null", "rho": qio.matrix_to_json(rand_state(rng, 2)),
               "n_grid": [100, 200], "trials": 150, "seed": 9}
        cfg = qio.config_from_json(obj)
        assert cfg.kind == "one_sample_null"
        assert cfg.n_grid == (100, 200)
        assert cfg.trials == 150

    def test_absent_config_fields_take_the_defaults(self, rng):
        rho = rand_state(rng, 2)
        cfg = qio.config_from_json({"kind": "one_sample_null", "rho": qio.matrix_to_json(rho), "seed": 9})
        expected = ExperimentConfig(kind="one_sample_null", rho=rho, seed=9)
        for name in ("alpha", "n_grid", "trials", "scaling_exponent", "output_path", "povm_family", "experiment_id"):
            assert getattr(cfg, name) == getattr(expected, name), name
